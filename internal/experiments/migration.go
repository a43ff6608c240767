package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"cloudskulk/internal/core"
	"cloudskulk/internal/migrate"
	"cloudskulk/internal/report"
	"cloudskulk/internal/runner"
	"cloudskulk/internal/stats"
	"cloudskulk/internal/workload"
)

// MigrationKind is one of the paper's two Fig. 4 series.
type MigrationKind string

// Fig. 4 series.
const (
	// MigrationL0L0 is a conventional same-host migration between two
	// L1 guests.
	MigrationL0L0 MigrationKind = "L0-L0"
	// MigrationL0L1 is the CloudSkulk shape: an L1 guest migrated into
	// an L2 guest nested inside the rootkit VM.
	MigrationL0L1 MigrationKind = "L0-L1"
)

// Figure4Cell is one (workload, kind) measurement series.
type Figure4Cell struct {
	Workload string
	Kind     MigrationKind
	Seconds  []float64
	// Converged reports whether every run's pre-copy converged.
	Converged bool
}

// Figure4Result holds the six cells of Fig. 4.
type Figure4Result struct {
	Cells []Figure4Cell
}

// figure4Workloads returns the paper's three guest activities.
func figure4Workloads() []workload.Profile {
	return []workload.Profile{
		workload.IdleProfile(),
		workload.FilebenchProfile(),
		workload.KernelCompileProfile(),
	}
}

// Figure4Migration reproduces Fig. 4: live-migration end-to-end time for
// idle / filebench / kernel-compile guests, both L0-L0 and L0-L1. The
// (workload, kind, run) grid is sharded across the worker pool; every run
// builds an isolated testbed from its own perRunSeed, so the assembled
// figure is independent of Options.Workers and of the dispatch order.
//
// The pool hands cells out in the order listed, so the grid is listed
// costliest first: the busier guest (higher DirtyPagesPerSec) first, and
// L0-L1 before L0-L0. Kernel-compile L0-L1 runs cost several times any
// other cell; listed last, as in the figure, they leave one worker
// finishing them alone. Result.Cells stay in the figure's order.
func Figure4Migration(o Options) (Figure4Result, error) {
	o = o.withDefaults()
	type gridCell struct {
		prof workload.Profile
		kind MigrationKind
		run  int
	}
	var cells []gridCell
	for _, prof := range figure4Workloads() {
		for _, kind := range []MigrationKind{MigrationL0L0, MigrationL0L1} {
			for run := 0; run < o.Runs; run++ {
				cells = append(cells, gridCell{prof, kind, run})
			}
		}
	}
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ca, cb := cells[a], cells[b]
		if c := cmp.Compare(cb.prof.DirtyPagesPerSec, ca.prof.DirtyPagesPerSec); c != 0 {
			return c
		}
		return cmp.Compare(cb.kind, ca.kind) // "L0-L1" before "L0-L0"
	})
	type outcome struct {
		secs      float64
		converged bool
	}
	dispatched, err := runner.Map(len(order), o.runnerOptions(), func(i int) (outcome, error) {
		cl := cells[order[i]]
		seed := perRunSeed(o, cellLabel("fig4", cl.prof.Name, string(cl.kind)), cl.run)
		secs, converged, err := migrateOnce(seed, o, cl.prof, cl.kind)
		if err != nil {
			return outcome{}, fmt.Errorf("fig4 %s/%s run %d: %w", cl.prof.Name, cl.kind, cl.run, err)
		}
		return outcome{secs, converged}, nil
	})
	if err != nil {
		return Figure4Result{}, err
	}
	outs := make([]outcome, len(cells))
	for i, ci := range order {
		outs[ci] = dispatched[i]
	}
	var res Figure4Result
	for i := 0; i < len(cells); i += o.Runs {
		cell := Figure4Cell{Workload: cells[i].prof.Name, Kind: cells[i].kind, Converged: true}
		for run := 0; run < o.Runs; run++ {
			out := outs[i+run]
			cell.Seconds = append(cell.Seconds, out.secs)
			cell.Converged = cell.Converged && out.converged
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// migrateOnce builds a fresh testbed, attaches the background workload to
// the victim, migrates it, and returns the end-to-end time.
func migrateOnce(seed int64, o Options, prof workload.Profile, kind MigrationKind) (float64, bool, error) {
	return migrateOnceWith(seed, o, prof, kind, nil)
}

// migrateOnceWith additionally lets the caller adjust the migration
// engine's tunables (capability ablations).
func migrateOnceWith(seed int64, o Options, prof workload.Profile, kind MigrationKind,
	configure func(*migrate.Engine)) (float64, bool, error) {
	c, err := NewCloud(seed, WithGuestMemMB(o.GuestMemMB), WithWorkloadProfile(prof),
		WithTelemetry(o.Telemetry), WithBackend(o.Backend))
	if err != nil {
		return 0, false, err
	}
	defer c.Background.Stop()
	if configure != nil {
		configure(c.Migration)
	}

	hv := c.Host.Hypervisor()
	switch kind {
	case MigrationL0L0:
		dst := c.Victim.Config()
		dst.Name = "dst"
		dst.MonitorPort = 0
		dst.NetDevs[0].HostFwds = nil
		if _, err := core.LaunchIncoming(hv, dst); err != nil {
			return 0, false, err
		}
	case MigrationL0L1:
		// The install's own steps 2-3: the paper's RITM, and the
		// victim's twin nested inside it.
		_, inner, err := core.LaunchRITM(hv, core.InstallConfig{}, c.Victim.Config())
		if err != nil {
			return 0, false, err
		}
		if _, err := core.LaunchIncoming(inner, c.Victim.Config()); err != nil {
			return 0, false, err
		}
	}
	result, err := core.Migrate(c.Victim, c.Migration)
	if err != nil {
		return 0, false, err
	}
	return result.TotalTime.Seconds(), result.Converged, nil
}

// Cell returns the named cell.
func (r Figure4Result) Cell(workloadName string, kind MigrationKind) (Figure4Cell, bool) {
	for _, c := range r.Cells {
		if c.Workload == workloadName && c.Kind == kind {
			return c, true
		}
	}
	return Figure4Cell{}, false
}

// Render draws the figure with both label sets the paper shows: absolute
// end-to-end times and the L0-L0 -> L0-L1 percentage increases.
func (r Figure4Result) Render() string {
	c := report.BarChart{
		Title: "Fig 4: Live migration end-to-end timing vs workload",
		Unit:  "s",
	}
	for _, prof := range figure4Workloads() {
		flat, _ := r.Cell(prof.Name, MigrationL0L0)
		nested, _ := r.Cell(prof.Name, MigrationL0L1)
		fs, _ := stats.Summarize(flat.Seconds)
		ns, _ := stats.Summarize(nested.Seconds)
		c.Add(prof.Name+" "+string(MigrationL0L0), fs.Mean,
			fmt.Sprintf("rsd %.1f%%", fs.RelStddev*100))
		note := fmt.Sprintf("%s vs L0-L0, rsd %.1f%%",
			report.Pct(stats.PercentChange(fs.Mean, ns.Mean)), ns.RelStddev*100)
		if !nested.Converged {
			note += ", non-converged"
		}
		c.Add(prof.Name+" "+string(MigrationL0L1), ns.Mean, note)
	}
	return c.Render()
}

// AblationDirtyRateResult sweeps guest dirty rate against migration time,
// exposing the pre-copy convergence knee Fig. 4's compile bar sits on.
type AblationDirtyRateResult struct {
	RatesPagesPerSec []float64
	Seconds          []float64
	Converged        []bool
}

// AblationDirtyRate measures L0-L0 migration time across dirty rates.
func AblationDirtyRate(o Options, rates []float64) (AblationDirtyRateResult, error) {
	o = o.withDefaults()
	type outcome struct {
		secs      float64
		converged bool
	}
	outs, err := runner.Map(len(rates), o.runnerOptions(), func(i int) (outcome, error) {
		prof := workload.Profile{
			Name:               fmt.Sprintf("sweep-%d", i),
			DirtyPagesPerSec:   rates[i],
			WorkingSetFraction: 0.5,
			DirtyRateJitter:    0.02,
		}
		secs, converged, err := migrateOnce(perRunSeed(o, "ablate-dirty", i), o, prof, MigrationL0L0)
		if err != nil {
			return outcome{}, err
		}
		return outcome{secs, converged}, nil
	})
	if err != nil {
		return AblationDirtyRateResult{}, err
	}
	var res AblationDirtyRateResult
	for i, out := range outs {
		res.RatesPagesPerSec = append(res.RatesPagesPerSec, rates[i])
		res.Seconds = append(res.Seconds, out.secs)
		res.Converged = append(res.Converged, out.converged)
	}
	return res, nil
}

// Render draws the sweep.
func (r AblationDirtyRateResult) Render() string {
	c := report.BarChart{
		Title: "Ablation: pre-copy convergence vs guest dirty rate (32 MiB/s link = 8192 pages/s)",
		Unit:  "s",
	}
	for i := range r.RatesPagesPerSec {
		note := "converged"
		if !r.Converged[i] {
			note = "forced stop"
		}
		c.Add(fmt.Sprintf("%5.0f pages/s", r.RatesPagesPerSec[i]), r.Seconds[i], note)
	}
	return c.Render()
}

// AblationMigrationFeaturesResult measures the CloudSkulk installation
// migration (compile workload, L0-L1 — the paper's worst case) under the
// migration capabilities newer QEMU versions ship: XBZRLE delta
// compression and auto-converge throttling. The paper's ~820 s number is a
// property of QEMU 2.9 defaults; capabilities change the attack's exposure
// window dramatically.
type AblationMigrationFeaturesResult struct {
	Variants  []string
	Seconds   []float64
	Converged []bool
}

// AblationMigrationFeatures runs the worst-case install migration under
// four capability configurations.
func AblationMigrationFeatures(o Options) (AblationMigrationFeaturesResult, error) {
	o = o.withDefaults()
	variants := []struct {
		name string
		conf func(*migrate.Engine)
	}{
		{"qemu-2.9 defaults", nil},
		{"xbzrle", func(e *migrate.Engine) { e.Tunables.XBZRLE = true }},
		{"auto-converge", func(e *migrate.Engine) {
			e.Tunables.AutoConverge = true
		}},
		{"xbzrle + auto-converge", func(e *migrate.Engine) {
			e.Tunables.XBZRLE = true
			e.Tunables.AutoConverge = true
		}},
	}
	type outcome struct {
		secs      float64
		converged bool
	}
	outs, err := runner.Map(len(variants), o.runnerOptions(), func(i int) (outcome, error) {
		v := variants[i]
		secs, converged, err := migrateOnceWith(
			perRunSeed(o, "ablate-feats", i), o,
			workload.KernelCompileProfile(), MigrationL0L1, v.conf)
		if err != nil {
			return outcome{}, fmt.Errorf("features %s: %w", v.name, err)
		}
		return outcome{secs, converged}, nil
	})
	var res AblationMigrationFeaturesResult
	if err != nil {
		return res, err
	}
	for i, v := range variants {
		res.Variants = append(res.Variants, v.name)
		res.Seconds = append(res.Seconds, outs[i].secs)
		res.Converged = append(res.Converged, outs[i].converged)
	}
	return res, nil
}

// Render draws the comparison.
func (r AblationMigrationFeaturesResult) Render() string {
	t := report.Table{
		Title:   "Ablation: worst-case install migration vs QEMU migration capabilities",
		Headers: []string{"capabilities", "end-to-end (s)", "converged"},
	}
	for i := range r.Variants {
		t.AddRow(r.Variants[i], report.F2(r.Seconds[i]),
			fmt.Sprintf("%v", r.Converged[i]))
	}
	return t.Render()
}

// AblationPrePostCopyResult compares installation time under the two
// migration algorithms the paper says the attack supports.
type AblationPrePostCopyResult struct {
	PreCopySeconds  float64
	PostCopySeconds float64
	PreDowntime     time.Duration
	PostDowntime    time.Duration
}

// AblationPrePostCopy installs the rootkit with pre-copy and with
// post-copy migration and compares end-to-end install cost.
func AblationPrePostCopy(o Options) (AblationPrePostCopyResult, error) {
	o = o.withDefaults()
	modes := []migrate.Mode{migrate.PreCopy, migrate.PostCopy}
	type outcome struct {
		secs     float64
		downtime time.Duration
	}
	outs, err := runner.Map(len(modes), o.runnerOptions(), func(i int) (outcome, error) {
		mode := modes[i]
		c, err := NewCloud(perRunSeed(o, "ablate-mode", int(mode)),
			WithGuestMemMB(o.GuestMemMB), WithTelemetry(o.Telemetry),
			WithBackend(o.Backend),
			// The victim is busy during the theft: pre-copy pays for that
			// with downtime at the end, post-copy does not.
			WithWorkloadProfile(workload.FilebenchProfile()))
		if err != nil {
			return outcome{}, err
		}
		defer c.Background.Stop()
		c.Migration.Tunables.Mode = mode
		rk, err := c.InstallRootkit(core.InstallConfig{})
		if err != nil {
			return outcome{}, fmt.Errorf("install with %v: %w", mode, err)
		}
		return outcome{rk.Report.TotalTime.Seconds(), rk.Report.Migration.Downtime}, nil
	})
	var res AblationPrePostCopyResult
	if err != nil {
		return res, err
	}
	res.PreCopySeconds = outs[0].secs
	res.PreDowntime = outs[0].downtime
	res.PostCopySeconds = outs[1].secs
	res.PostDowntime = outs[1].downtime
	return res, nil
}

// Render draws the comparison.
func (r AblationPrePostCopyResult) Render() string {
	t := report.Table{
		Title:   "Ablation: CloudSkulk install time, pre-copy vs post-copy migration",
		Headers: []string{"Mode", "install time (s)", "victim downtime (ms)"},
	}
	t.AddRow("pre-copy", report.F2(r.PreCopySeconds), report.F2(float64(r.PreDowntime.Milliseconds())))
	t.AddRow("post-copy", report.F2(r.PostCopySeconds), report.F2(float64(r.PostDowntime.Milliseconds())))
	return t.Render()
}
