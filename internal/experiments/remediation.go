package experiments

import (
	"fmt"
	"time"

	"cloudskulk/internal/core"
	"cloudskulk/internal/detect"
	"cloudskulk/internal/kvm"
	"cloudskulk/internal/migrate"
	"cloudskulk/internal/report"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/virtman"
	"cloudskulk/internal/vnet"
)

// RemediationResult records the full operational loop: the attack, the
// detection, the operator's response, and the post-remediation re-check.
type RemediationResult struct {
	// PreVerdict is the detector's finding on the compromised host.
	PreVerdict detect.Verdict
	// ManagerSawShutOff: whether the management plane (which the
	// attacker bypassed) exposed the tell-tale "guest0 shut off while a
	// guest0 process runs" inconsistency.
	ManagerSawShutOff bool
	// KilledVM names the VM the operator destroyed (the disguised RITM).
	KilledVM string
	// PostVerdict is the re-check after rebuilding the tenant.
	PostVerdict detect.Verdict
	// Downtime is the tenant's outage during remediation.
	Downtime time.Duration
}

// RemediationDrill plays out the defender's runbook end to end:
//
//  1. a managed tenant is CloudSkulked (the attacker drives QEMU directly,
//     bypassing the management plane — as the paper's attacker does);
//  2. the dedup detector flags the tenant;
//  3. the operator traces the tenant's service port to the actual VM
//     serving it (the disguised RITM), destroys the whole nested stack,
//     and rebuilds the tenant from its managed definition;
//  4. the detector re-checks the rebuilt tenant.
func RemediationDrill(o Options) (RemediationResult, error) {
	o = o.withDefaults()
	var res RemediationResult

	backend, err := o.resolveBackend()
	if err != nil {
		return res, err
	}
	eng := sim.NewEngine(o.Seed)
	network := vnet.New(eng)
	host, err := kvm.NewHostWithBackend(eng, network, "host", backend)
	if err != nil {
		return res, err
	}
	me := migrate.NewEngine(eng, network)
	host.SetMigrationService(me)
	mgr := virtman.NewManager(host)

	def := virtman.DomainDef{
		Name:        "guest0",
		MemoryMB:    o.GuestMemMB,
		VCPUs:       1,
		KVM:         true,
		MonitorPort: 5555,
		Interfaces: []virtman.IfaceDef{{
			Model:    "virtio-net-pci",
			Forwards: []virtman.PortPair{{Host: 2222, Guest: 22}},
		}},
	}
	if _, err := mgr.Define(def); err != nil {
		return res, err
	}
	if err := mgr.Start("guest0"); err != nil {
		return res, err
	}

	// The attack (management plane bypassed).
	rk, err := core.Installer{Host: host, Migration: me}.Install(core.InstallConfig{TargetName: "guest0"})
	if err != nil {
		return res, err
	}

	// Detection.
	host.KSM().Start()
	d := o.dedupDetector(host)
	agent := detect.NewGuestAgent(rk.Victim)
	agent.OnLoad = rk.InterceptFilePushes()
	verdict, _, err := d.Run(agent)
	if err != nil {
		return res, err
	}
	res.PreVerdict = verdict

	// The management plane's view is already inconsistent: libvirt lost
	// its domain (the attacker killed the original QEMU), yet ps shows a
	// "guest0" process.
	if dom, ok := mgr.Domain("guest0"); ok {
		res.ManagerSawShutOff = dom.State() == virtman.StateDefined &&
			len(host.OS().FindByCommand("-name guest0")) > 0
	}

	// Response: trace the service port to the actual serving VM and
	// destroy that whole stack. The L0 VM the port's forward chain
	// enters is the one to kill; for the CloudSkulk chain that is the
	// RITM (the nested victim dies with it).
	outageStart := eng.Now()
	_, l0vm, err := host.Serving(2222)
	if err != nil {
		return res, fmt.Errorf("remediation: %w", err)
	}
	res.KilledVM = l0vm.Name()
	if err := host.Hypervisor().Kill(l0vm.Name()); err != nil {
		return res, err
	}

	// Rebuild the tenant from its managed definition and re-check.
	if err := mgr.Start("guest0"); err != nil {
		return res, fmt.Errorf("remediation: rebuild: %w", err)
	}
	res.Downtime = eng.Now() - outageStart
	fresh, _ := mgr.Domain("guest0")
	agent2 := detect.NewGuestAgent(fresh.VM())
	verdict2, _, err := d.Run(agent2)
	if err != nil {
		return res, err
	}
	res.PostVerdict = verdict2
	return res, nil
}

// Render draws the drill outcome.
func (r RemediationResult) Render() string {
	t := report.Table{
		Title:   "Remediation drill: detect -> respond -> verify",
		Headers: []string{"step", "outcome"},
	}
	t.AddRow("detection on compromised tenant", r.PreVerdict.String())
	t.AddRow("management-plane inconsistency seen", fmt.Sprintf("%v", r.ManagerSawShutOff))
	t.AddRow("destroyed VM (disguised RITM)", r.KilledVM)
	t.AddRow("tenant outage", r.Downtime.String())
	t.AddRow("re-check on rebuilt tenant", r.PostVerdict.String())
	return t.Render()
}
