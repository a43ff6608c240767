package main

import (
	"errors"
	"fmt"
	"time"

	"cloudskulk"
	"cloudskulk/internal/shard"
	"cloudskulk/internal/workload"
)

// workloadDef is one kind of unit the benchmark times. run executes one
// unit through the program's experiment entry points and checks its
// output; setup is the workload's set-up probe.
type workloadDef struct {
	name  string
	run   func(h *harness, seed int64) (unitOutput, error)
	setup func(h *harness, seed int64) error
}

// unitOutput is what one unit produced besides its timing.
type unitOutput struct {
	// render is the artefact text; its SHA-256 is compared with the pins
	// in golden.json.
	render string
	// sim are simulated-time results shown beside the paper's numbers.
	// They are not metrics: for a given seed they never change.
	sim []simRow
	// counts are work counts read off the experiment's result.
	counts map[string]float64
}

// simRow is one ungated simulated number and the paper's figure for it.
type simRow struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Paper string  `json:"paper"`
}

// workloads lists the benchmark's workloads in run order. They stress
// different layers, so a change to one layer should move one workload and
// leave the others flat (see README.md).
var workloads = []workloadDef{
	{name: "detect", run: runDetect, setup: setupDetect},
	{name: "migration", run: runMigration, setup: setupMigration},
	{name: "cloudload", run: runCloudLoad, setup: setupCloudLoad},
	{name: "megastorm", run: runMegaStorm, setup: setupMegaStorm},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have detect, migration, cloudload, megastorm)", name)
}

// options returns the experiment options for one unit: paper scale (or the
// quick smoke scale), the unit's seed, the harness worker count and, in a
// traced unit, the unit's telemetry registry.
func (h *harness) options(seed int64) cloudskulk.ExperimentOptions {
	o := cloudskulk.DefaultExperimentOptions()
	if h.quick {
		o = cloudskulk.QuickExperimentOptions()
	}
	o.Seed = seed
	o.Workers = h.workers
	o.Telemetry = h.tele
	return o
}

// runDetect is paper Figs. 5-6: the dedup-timing detector on a clean host,
// then on a host with the rootkit installed.
func runDetect(h *harness, seed int64) (unitOutput, error) {
	o := h.options(seed)
	clean, err := call(h, "Figure5DetectionClean", func() (cloudskulk.DetectionResult, error) {
		return cloudskulk.Figure5DetectionClean(o)
	})
	if err != nil {
		return unitOutput{}, err
	}
	infected, err := call(h, "Figure6DetectionInfected", func() (cloudskulk.DetectionResult, error) {
		return cloudskulk.Figure6DetectionInfected(o)
	})
	if err != nil {
		return unitOutput{}, err
	}
	if clean.Verdict != cloudskulk.VerdictClean {
		return unitOutput{}, fmt.Errorf("Fig. 5 verdict %v, want %v", clean.Verdict, cloudskulk.VerdictClean)
	}
	if infected.Verdict != cloudskulk.VerdictNested {
		return unitOutput{}, fmt.Errorf("Fig. 6 verdict %v, want %v", infected.Verdict, cloudskulk.VerdictNested)
	}
	out := unitOutput{render: clean.Render() + infected.Render()}
	for _, fig := range []struct {
		name  string
		ev    cloudskulk.Evidence
		shape string
	}{
		{"fig5", clean.Evidence, "t1 >> t2 ~ t0"},
		{"fig6", infected.Evidence, "t1 ~ t2 >> t0"},
	} {
		out.sim = append(out.sim,
			simRow{"sim." + fig.name + ".t0_us", mean(fig.ev.T0.MicrosSeries()), fig.shape},
			simRow{"sim." + fig.name + ".t1_us", mean(fig.ev.T1.MicrosSeries()), fig.shape},
			simRow{"sim." + fig.name + ".t2_us", mean(fig.ev.T2.MicrosSeries()), fig.shape})
	}
	return out, nil
}

func setupDetect(h *harness, seed int64) error {
	o := h.options(seed)
	_, err := call(h, "New", func() (*cloudskulk.Cloud, error) {
		return cloudskulk.New(seed, cloudskulk.WithGuestMemMB(o.GuestMemMB), cloudskulk.WithKSMStarted())
	})
	return err
}

// fig4Paper are the paper's Fig. 4 L0-L1 (installation) migration times.
var fig4Paper = map[string]string{"idle": "~26 s", "filebench": "~29 s", "kernel-compile": "~820 s"}

// runMigration is paper Fig. 4: pre-copy live migration of three guest
// workloads, L0-L0 and L0-L1.
func runMigration(h *harness, seed int64) (unitOutput, error) {
	o := h.options(seed)
	r, err := call(h, "Figure4Migration", func() (cloudskulk.Figure4Result, error) {
		return cloudskulk.Figure4Migration(o)
	})
	if err != nil {
		return unitOutput{}, err
	}
	out := unitOutput{render: r.Render()}
	prev, prevName := -1.0, ""
	for _, c := range r.Cells {
		if !c.Converged {
			return unitOutput{}, fmt.Errorf("Fig. 4 %s %s: pre-copy did not converge", c.Workload, c.Kind)
		}
		if c.Kind != "L0-L1" {
			continue
		}
		secs := mean(c.Seconds)
		if secs <= prev {
			return unitOutput{}, fmt.Errorf("Fig. 4 nested times out of order: %s %.2f s <= %s %.2f s",
				c.Workload, secs, prevName, prev)
		}
		prev, prevName = secs, c.Workload
		out.sim = append(out.sim, simRow{"sim.fig4." + c.Workload + ".l0l1_s", secs, fig4Paper[c.Workload]})
	}
	if len(out.sim) != 3 {
		return unitOutput{}, fmt.Errorf("Fig. 4 has %d L0-L1 series, want 3", len(out.sim))
	}
	return out, nil
}

func setupMigration(h *harness, seed int64) error {
	o := h.options(seed)
	for _, p := range []workload.Profile{workload.IdleProfile(), workload.FilebenchProfile(), workload.KernelCompileProfile()} {
		c, err := call(h, "New", func() (*cloudskulk.Cloud, error) {
			return cloudskulk.New(seed, cloudskulk.WithGuestMemMB(o.GuestMemMB), cloudskulk.WithWorkloadProfile(p))
		})
		if err != nil {
			return err
		}
		c.Background.Stop()
	}
	return nil
}

func (h *harness) cloudLoadConfig() cloudskulk.CloudLoadConfig {
	if h.quick {
		return cloudskulk.QuickCloudLoadConfig()
	}
	return cloudskulk.DefaultCloudLoadConfig()
}

// runCloudLoad is the control plane under a read-heavy tenant load.
func runCloudLoad(h *harness, seed int64) (unitOutput, error) {
	o, cfg := h.options(seed), h.cloudLoadConfig()
	r, err := call(h, "CloudLoad", func() (*cloudskulk.CloudLoadResult, error) {
		return cloudskulk.CloudLoad(o, cfg)
	})
	if err != nil {
		return unitOutput{}, err
	}
	rejects := r.QuotaRejects + r.AdmissionRejects + r.OtherRejects
	if r.Issued != r.Reads+r.Mutations || r.Mutations != r.Accepted+rejects {
		return unitOutput{}, fmt.Errorf("cloudload ledger does not conserve: issued %d, reads %d, mutations %d, accepted %d, rejects %d",
			r.Issued, r.Reads, r.Mutations, r.Accepted, rejects)
	}
	if want := cfg.Cells * cfg.OpsPerCell; r.Issued != want {
		return unitOutput{}, fmt.Errorf("cloudload issued %d ops, want %d", r.Issued, want)
	}
	return unitOutput{render: r.Render(), counts: map[string]float64{
		"loadgen.ops":              float64(r.Issued),
		"controlplane.rejects":     float64(rejects),
		"controlplane.accept_frac": ratio(float64(r.Accepted), float64(r.Mutations)),
	}}, nil
}

// setupCloudLoad builds the fleets and control planes of every cloudload
// cell without running any load.
func setupCloudLoad(h *harness, seed int64) error {
	cfg := h.cloudLoadConfig()
	specs := make([]cloudskulk.HostSpec, cfg.HostsPerCell)
	for i := range specs {
		specs[i] = cloudskulk.HostSpec{Name: fmt.Sprintf("h%02d", i), MemMB: cfg.HostMemMB}
	}
	for i := 0; i < cfg.Cells; i++ {
		fl, err := call(h, "fleet.New", func() (*cloudskulk.Fleet, error) {
			return cloudskulk.NewFleet(seed*1000+int64(i), cloudskulk.WithHostSpecs(specs...),
				cloudskulk.WithRetry(3, 250*time.Millisecond))
		})
		if err != nil {
			return err
		}
		_, err = call(h, "controlplane.New", func() (*cloudskulk.ControlPlane, error) {
			return cloudskulk.NewControlPlane(fl, cloudskulk.ControlPlaneConfig{MaxQueue: cfg.MaxQueue, Slots: cfg.Slots}), nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (h *harness) megaStormConfig() cloudskulk.MegaStormConfig {
	if h.quick {
		return cloudskulk.QuickMegaStormConfig()
	}
	return cloudskulk.DefaultMegaStormConfig()
}

// runMegaStorm is the sharded world: copy-on-write-forked guests, churn,
// cross-shard delta migrations and a kernel audit.
func runMegaStorm(h *harness, seed int64) (unitOutput, error) {
	o, cfg := h.options(seed), h.megaStormConfig()
	r, err := call(h, "MegaStorm", func() (*cloudskulk.MegaStormResult, error) {
		return cloudskulk.MegaStorm(o, cfg)
	})
	if err != nil {
		return unitOutput{}, err
	}
	switch {
	case r.MissedTampers != 0 || r.FalseFlags != 0:
		return unitOutput{}, fmt.Errorf("megastorm audit not exact: %d missed tampers, %d false flags", r.MissedTampers, r.FalseFlags)
	case r.Guests != r.Deployed:
		return unitOutput{}, fmt.Errorf("megastorm has %d guests after churn, %d deployed", r.Guests, r.Deployed)
	}
	return unitOutput{render: r.Render(), counts: map[string]float64{
		"shard.rounds":         float64(r.Rounds),
		"shard.delivered":      float64(r.Delivered),
		"shard.msgs_per_round": ratio(float64(r.Delivered), float64(r.Rounds)),
		"shard.delta_pages":    float64(r.DeltaPages),
		"mem.fork_spawns":      float64(r.ForkSpawns),
	}}, nil
}

// megastormInterShard is a copy of megastormInterShard in
// internal/experiments/megastorm.go, which is unexported: 2 ms latency (the
// world's lookahead) at 10 GbE-class bandwidth. If that link changes, this
// copy no longer matches it.
var megastormInterShard = cloudskulk.LinkSpec{Bandwidth: 1250 << 20, Latency: 2 * time.Millisecond}

// setupMegaStorm builds the sharded grid and provisions every guest, the
// part of a megastorm unit before any churn. It approximates the grid
// MegaStorm builds: the shape, link and default backend are the same, but
// the grid takes the probe's seed as it is, where MegaStorm derives its
// grid seed from the run seed.
func setupMegaStorm(h *harness, seed int64) error {
	cfg := h.megaStormConfig()
	g, err := call(h, "shard.NewGrid", func() (*shard.Grid, error) {
		return shard.NewGrid(shard.GridConfig{
			Shards:        cfg.Shards,
			HostsPerShard: cfg.HostsPerShard,
			GuestsPerHost: cfg.GuestsPerHost,
			GuestMemMB:    cfg.GuestMemMB,
			Seed:          seed,
			Workers:       h.workers,
			InterShard:    megastormInterShard,
		})
	})
	if err != nil {
		return err
	}
	_, err = call(h, "shard.Provision", func() (time.Duration, error) { return g.Provision("mega") })
	if err != nil {
		return err
	}
	if st := g.Stats(); st.Deployed != cfg.Shards*cfg.HostsPerShard*cfg.GuestsPerHost {
		return errors.New("megastorm set-up: grid not fully provisioned")
	}
	return nil
}
