package experiments

import (
	"fmt"

	"cloudskulk/internal/core"
	"cloudskulk/internal/detect"
	"cloudskulk/internal/kvm"
	"cloudskulk/internal/migrate"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/report"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/vnet"
)

// SurveyTenant is one tenant's outcome in a multi-tenant sweep.
type SurveyTenant struct {
	Name     string
	SSHPort  int
	Verdict  detect.Verdict
	Infected bool // ground truth, for scoring
}

// SurveyResult is a whole-host detection sweep.
type SurveyResult struct {
	Tenants []SurveyTenant
}

// MultiTenantSurvey models the operational deployment of the defence: a
// host runs several tenants, an attacker CloudSkulks one of them, and the
// operator runs the dedup-timing protocol against *every* tenant — each
// agent reached through the tenant's own service port, so it lands in
// whatever VM actually serves that tenant (the nested one, for the
// victim). Only the compromised tenant should flag.
func MultiTenantSurvey(o Options, tenants int, infected int) (SurveyResult, error) {
	o = o.withDefaults()
	if tenants < 2 {
		tenants = 2
	}
	if infected < 0 || infected >= tenants {
		infected = tenants / 2
	}

	backend, err := o.resolveBackend()
	if err != nil {
		return SurveyResult{}, err
	}
	eng := sim.NewEngine(o.Seed)
	network := vnet.New(eng)
	host, err := kvm.NewHostWithBackend(eng, network, "host", backend)
	if err != nil {
		return SurveyResult{}, err
	}
	me := migrate.NewEngine(eng, network)
	host.SetMigrationService(me)

	names := make([]string, tenants)
	ports := make([]int, tenants)
	for i := 0; i < tenants; i++ {
		names[i] = fmt.Sprintf("tenant%d", i)
		ports[i] = 2200 + i
		cfg := qemu.DefaultConfig(names[i])
		cfg.MemoryMB = o.GuestMemMB
		cfg.MonitorPort = 5550 + i
		cfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: ports[i], GuestPort: 22}}
		if _, err := host.Hypervisor().CreateVM(cfg); err != nil {
			return SurveyResult{}, err
		}
		if err := host.Hypervisor().Launch(names[i]); err != nil {
			return SurveyResult{}, err
		}
	}

	// The attack captures one tenant.
	rk, err := core.Installer{Host: host, Migration: me}.Install(core.InstallConfig{TargetName: names[infected]})
	if err != nil {
		return SurveyResult{}, err
	}

	host.KSM().Start()
	d := o.dedupDetector(host)

	var res SurveyResult
	for i := 0; i < tenants; i++ {
		// The operator reaches each tenant through its service port;
		// the agent runs in whatever VM answers there.
		vm, _, err := host.Serving(ports[i])
		if err != nil {
			return SurveyResult{}, fmt.Errorf("survey: %w", err)
		}
		agent := detect.NewGuestAgent(vm)
		if i == infected {
			// The rootkit intercepts pushes to its victim.
			agent.OnLoad = rk.InterceptFilePushes()
		}
		verdict, _, err := d.Run(agent)
		if err != nil {
			return SurveyResult{}, err
		}
		res.Tenants = append(res.Tenants, SurveyTenant{
			Name:     names[i],
			SSHPort:  ports[i],
			Verdict:  verdict,
			Infected: i == infected,
		})
	}
	return res, nil
}

// Correct reports whether the survey flagged exactly the infected tenants.
//
//detlint:allow deadcode — test oracle: the survey tests and benchmark score a sweep with it
func (r SurveyResult) Correct() bool {
	for _, tn := range r.Tenants {
		flagged := tn.Verdict == detect.VerdictNested
		if flagged != tn.Infected {
			return false
		}
	}
	return true
}

// Render draws the survey.
func (r SurveyResult) Render() string {
	t := report.Table{
		Title:   "Multi-tenant detection survey (operator's view)",
		Headers: []string{"tenant", "ssh port", "verdict", "ground truth"},
	}
	for _, tn := range r.Tenants {
		truth := "clean"
		if tn.Infected {
			truth = "CloudSkulk victim"
		}
		t.AddRow(tn.Name, fmt.Sprintf("%d", tn.SSHPort), tn.Verdict.String(), truth)
	}
	return t.Render()
}
