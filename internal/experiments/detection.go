package experiments

import (
	"fmt"
	"time"

	"cloudskulk/internal/core"
	"cloudskulk/internal/detect"
	"cloudskulk/internal/report"
	"cloudskulk/internal/runner"
	"cloudskulk/internal/stats"
)

// DetectionResult is one run of the dedup-timing protocol: the verdict and
// the three per-page timing series of Figs. 5-6.
type DetectionResult struct {
	Scenario string
	Verdict  detect.Verdict
	Evidence detect.Evidence
}

// Figure5DetectionClean reproduces Fig. 5: t0/t1/t2 when no nested VM
// exists (expected: t1 >> t2 ~= t0, verdict clean).
func Figure5DetectionClean(o Options) (DetectionResult, error) {
	o = o.withDefaults()
	c, err := NewCloud(o.Seed, WithGuestMemMB(o.GuestMemMB), WithKSMStarted(), WithTelemetry(o.Telemetry), WithBackend(o.Backend))
	if err != nil {
		return DetectionResult{}, err
	}
	verdict, ev, err := o.dedupDetector(c.Host).Run(detect.NewGuestAgent(c.Victim))
	if err != nil {
		return DetectionResult{}, err
	}
	return DetectionResult{Scenario: "no nested VM", Verdict: verdict, Evidence: ev}, nil
}

// Figure6DetectionInfected reproduces Fig. 6: t0/t1/t2 with a CloudSkulk
// rootkit installed (expected: t1 ~= t2 >> t0, verdict nested).
func Figure6DetectionInfected(o Options) (DetectionResult, error) {
	o = o.withDefaults()
	c, err := NewCloud(o.Seed, WithGuestMemMB(o.GuestMemMB), WithTelemetry(o.Telemetry), WithBackend(o.Backend))
	if err != nil {
		return DetectionResult{}, err
	}
	rk, err := c.InstallRootkit(core.InstallConfig{})
	if err != nil {
		return DetectionResult{}, err
	}
	c.Host.KSM().Start()
	agent := detect.NewGuestAgent(rk.Victim)
	agent.OnLoad = rk.InterceptFilePushes()
	verdict, ev, err := o.dedupDetector(c.Host).Run(agent)
	if err != nil {
		return DetectionResult{}, err
	}
	return DetectionResult{Scenario: "with nested VM (CloudSkulk)", Verdict: verdict, Evidence: ev}, nil
}

// Render draws the per-series means with merged fractions — the textual
// analogue of the Figs. 5-6 scatter plots.
func (r DetectionResult) Render() string {
	c := report.BarChart{
		Title: "Detection timing, scenario: " + r.Scenario +
			" — verdict: " + r.Verdict.String(),
		Unit: "µs/page write",
	}
	add := func(name string, p detect.Probe) {
		s, err := stats.Summarize(p.MicrosSeries())
		if err != nil {
			return
		}
		c.Add(name, s.Mean, fmt.Sprintf("%.0f%% pages merged", p.MergedFraction*100))
	}
	add("t0 (baseline)", r.Evidence.T0)
	add("t1 (after push)", r.Evidence.T1)
	add("t2 (after guest change)", r.Evidence.T2)
	return c.Render()
}

// AblationProbeSizeResult sweeps the probe-file size: the paper argues a
// single page suffices.
type AblationProbeSizeResult struct {
	Pages    []int
	Verdicts []detect.Verdict
}

// AblationProbeSize runs the infected-scenario detection across probe
// sizes.
func AblationProbeSize(o Options, sizes []int) (AblationProbeSizeResult, error) {
	o = o.withDefaults()
	verdicts, err := runner.Map(len(sizes), o.runnerOptions(), func(i int) (detect.Verdict, error) {
		opts := o
		opts.Seed = perRunSeed(o, "ablate-probe", i)
		opts.DetectPages = sizes[i]
		out, err := Figure6DetectionInfected(opts)
		if err != nil {
			return 0, err
		}
		return out.Verdict, nil
	})
	if err != nil {
		return AblationProbeSizeResult{}, err
	}
	return AblationProbeSizeResult{Pages: sizes, Verdicts: verdicts}, nil
}

// Render draws the sweep.
func (r AblationProbeSizeResult) Render() string {
	t := report.Table{
		Title:   "Ablation: detection verdict vs probe-file size (infected host)",
		Headers: []string{"probe pages", "verdict"},
	}
	for i := range r.Pages {
		t.AddRow(fmt.Sprintf("%d", r.Pages[i]), r.Verdicts[i].String())
	}
	return t.Render()
}

// AblationKSMRateResult sweeps the detector's wait window against the KSM
// scan rate: too little waiting and the protocol is inconclusive.
type AblationKSMRateResult struct {
	Waits    []time.Duration
	Verdicts []detect.Verdict
	T1Merged []float64
}

// AblationKSMWait runs clean-scenario detection across merge windows.
func AblationKSMWait(o Options, waits []time.Duration) (AblationKSMRateResult, error) {
	o = o.withDefaults()
	outs, err := runner.Map(len(waits), o.runnerOptions(), func(i int) (DetectionResult, error) {
		opts := o
		opts.Seed = perRunSeed(o, "ablate-ksm", i)
		opts.KSMWait = waits[i]
		return Figure5DetectionClean(opts)
	})
	if err != nil {
		return AblationKSMRateResult{}, err
	}
	var res AblationKSMRateResult
	for i, out := range outs {
		res.Waits = append(res.Waits, waits[i])
		res.Verdicts = append(res.Verdicts, out.Verdict)
		res.T1Merged = append(res.T1Merged, out.Evidence.T1.MergedFraction)
	}
	return res, nil
}

// Render draws the sweep.
func (r AblationKSMRateResult) Render() string {
	t := report.Table{
		Title:   "Ablation: detection vs KSM merge window (clean host)",
		Headers: []string{"wait", "t1 merged", "verdict"},
	}
	for i := range r.Waits {
		t.AddRow(r.Waits[i].String(),
			fmt.Sprintf("%.0f%%", r.T1Merged[i]*100),
			r.Verdicts[i].String())
	}
	return t.Render()
}

// AblationTimingGapResult sweeps the copy-on-write timing gap the whole
// detection signal rests on: as the COW-break cost approaches the regular
// write cost (fast hardware, noisy hosts), classification must degrade to
// inconclusive — never to a wrong verdict.
type AblationTimingGapResult struct {
	GapRatios []float64 // CowBreak / Regular
	Clean     []detect.Verdict
	Infected  []detect.Verdict
}

// AblationTimingGap runs both scenarios across shrinking timing gaps.
func AblationTimingGap(o Options, gapRatios []float64) (AblationTimingGapResult, error) {
	o = o.withDefaults()
	// The grid interleaves (ratio, clean) and (ratio, infected) so cell
	// 2i is the clean run and 2i+1 the infected run at gapRatios[i].
	verdicts, err := runner.Map(2*len(gapRatios), o.runnerOptions(), func(cell int) (detect.Verdict, error) {
		i, infected := cell/2, cell%2 == 1
		ratio := gapRatios[i]
		seed := perRunSeed(o, cellLabel("ablate-gap", fmt.Sprintf("%v", infected)), i)
		c, err := NewCloud(seed, WithGuestMemMB(o.GuestMemMB), WithTelemetry(o.Telemetry), WithBackend(o.Backend))
		if err != nil {
			return 0, err
		}
		var rk *core.Rootkit
		if infected {
			rk, err = c.InstallRootkit(core.InstallConfig{})
			if err != nil {
				return 0, err
			}
		}
		// Shrink the host's dedup timing gap.
		costs := c.Host.KSM().Costs()
		costs.CowBreakWrite = time.Duration(float64(costs.RegularWrite) * ratio)
		c.Host.KSM().Start()
		d := o.dedupDetector(c.Host)
		d.CostOverride = &costs
		var agent *detect.GuestAgent
		if infected {
			agent = detect.NewGuestAgent(rk.Victim)
			agent.OnLoad = rk.InterceptFilePushes()
		} else {
			agent = detect.NewGuestAgent(c.Victim)
		}
		verdict, _, err := d.Run(agent)
		if err != nil {
			return 0, err
		}
		return verdict, nil
	})
	var res AblationTimingGapResult
	if err != nil {
		return res, err
	}
	for i, ratio := range gapRatios {
		res.GapRatios = append(res.GapRatios, ratio)
		res.Clean = append(res.Clean, verdicts[2*i])
		res.Infected = append(res.Infected, verdicts[2*i+1])
	}
	return res, nil
}

// Render draws the sweep.
func (r AblationTimingGapResult) Render() string {
	t := report.Table{
		Title:   "Ablation: verdicts vs COW/regular write timing gap",
		Headers: []string{"gap ratio", "clean host", "infected host"},
	}
	for i := range r.GapRatios {
		t.AddRow(fmt.Sprintf("%.1fx", r.GapRatios[i]),
			r.Clean[i].String(), r.Infected[i].String())
	}
	return t.Render()
}

// BaselineComparisonResult pits the three detectors against four attacker
// configurations — the §VI-E discussion as an experiment.
type BaselineComparisonResult struct {
	Rows []BaselineComparisonRow
}

// BaselineComparisonRow is one attacker configuration's outcome against
// all three detectors.
type BaselineComparisonRow struct {
	Attacker        string
	DedupVerdict    detect.Verdict
	VMCSFindings    int
	FingerprintFlag bool // true = fingerprint mismatch observed
}

// BaselineComparison evaluates dedup timing, VMCS scanning, and VMI
// fingerprinting against attacker variants (hardware vs software MMU,
// impersonation on/off).
func BaselineComparison(o Options) (BaselineComparisonResult, error) {
	o = o.withDefaults()
	variants := []struct {
		name     string
		hideVMCS bool
		naive    bool
	}{
		{"default (VT-x, impersonating)", false, false},
		{"software MMU (VMCS hidden)", true, false},
		{"naive (no impersonation)", false, true},
	}
	rows, err := runner.Map(len(variants), o.runnerOptions(), func(i int) (BaselineComparisonRow, error) {
		v := variants[i]
		c, err := NewCloud(perRunSeed(o, "baseline-cmp", i), WithGuestMemMB(o.GuestMemMB), WithTelemetry(o.Telemetry), WithBackend(o.Backend))
		if err != nil {
			return BaselineComparisonRow{}, err
		}
		db := detect.NewFingerprintDB()
		db.Baseline(c.Victim)
		rk, err := c.InstallRootkit(core.InstallConfig{Naive: v.naive, HideVMCS: v.hideVMCS})
		if err != nil {
			return BaselineComparisonRow{}, err
		}
		c.Host.KSM().Start()
		agent := detect.NewGuestAgent(rk.Victim)
		if !v.naive {
			agent.OnLoad = rk.InterceptFilePushes()
		}
		verdict, _, err := o.dedupDetector(c.Host).Run(agent)
		if err != nil {
			return BaselineComparisonRow{}, err
		}
		findings := detect.VMCSScanner{Host: c.Host}.Scan()
		baseFP, _ := db.Known(c.Victim.Name())
		fpMismatch := db.FingerprintOf(rk.RITM) != baseFP
		return BaselineComparisonRow{
			Attacker:        v.name,
			DedupVerdict:    verdict,
			VMCSFindings:    len(findings),
			FingerprintFlag: fpMismatch,
		}, nil
	})
	if err != nil {
		return BaselineComparisonResult{}, err
	}
	return BaselineComparisonResult{Rows: rows}, nil
}

// Render draws the comparison.
func (r BaselineComparisonResult) Render() string {
	t := report.Table{
		Title:   "Detector comparison across attacker variants (paper §VI-E)",
		Headers: []string{"attacker", "dedup timing", "VMCS scan", "VMI fingerprint"},
	}
	for _, row := range r.Rows {
		vmcs := "missed"
		if row.VMCSFindings > 0 {
			vmcs = fmt.Sprintf("detected (%d)", row.VMCSFindings)
		}
		fp := "missed"
		if row.FingerprintFlag {
			fp = "detected"
		}
		t.AddRow(row.Attacker, row.DedupVerdict.String(), vmcs, fp)
	}
	return t.Render()
}
