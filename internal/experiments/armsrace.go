package experiments

import (
	"fmt"
	"time"

	"cloudskulk/internal/core"
	"cloudskulk/internal/detect"
	"cloudskulk/internal/report"
	"cloudskulk/internal/runner"
)

// This file makes the paper's §VI-D discussion — "can the attacker evade
// by synchronizing L1's copy when L2's changes?" — a concrete experiment.
//
// Attacker options:
//   - no synchronization (the baseline CloudSkulk);
//   - write-track only the regions it has *seen* (intercepted file
//     pushes);
//   - write-track the victim's entire RAM.
//
// Detector options:
//   - the pushed-file probe (the paper's demonstrated protocol);
//   - the image probe: a random window of vendor-provisioned pages, which
//     the attacker cannot predict.
//
// The expected outcome is the paper's argument in data: partial tracking
// evades only the probe it happens to cover; full tracking evades both but
// costs one trap per guest write across all of RAM and plants a hook a
// hypervisor-integrity check can see.

// ArmsRaceAttacker enumerates the attacker's §VI-D options.
type ArmsRaceAttacker string

// Attacker variants.
const (
	AttackerNoSync    ArmsRaceAttacker = "no sync"
	AttackerSyncPush  ArmsRaceAttacker = "track pushed files"
	AttackerSyncAllOf ArmsRaceAttacker = "track all guest RAM"
)

// ArmsRaceProbe enumerates the detector's options.
type ArmsRaceProbe string

// Probe variants.
const (
	ProbePushedFile ArmsRaceProbe = "pushed-file probe"
	ProbeImage      ArmsRaceProbe = "image probe"
)

// ArmsRaceRow is one (attacker, probe) cell.
type ArmsRaceRow struct {
	Attacker ArmsRaceAttacker
	Probe    ArmsRaceProbe
	Verdict  detect.Verdict
	// Traps is how many guest writes the attacker's tracker intercepted
	// during the detection run.
	Traps uint64
	// TrapOverhead is the guest time those traps cost.
	TrapOverhead time.Duration
	// HookVisible reports whether a hypervisor-integrity check of the
	// guest's memory management would see the attacker's modification.
	HookVisible bool
}

// ArmsRaceResult is the full matrix.
type ArmsRaceResult struct {
	Rows []ArmsRaceRow
}

// ArmsRaceSyncCountermeasure runs the six-cell matrix, sharding the cells
// across the worker pool; each cell's seed depends only on its grid
// position, so the matrix is independent of Options.Workers.
func ArmsRaceSyncCountermeasure(o Options) (ArmsRaceResult, error) {
	o = o.withDefaults()
	attackers := []ArmsRaceAttacker{AttackerNoSync, AttackerSyncPush, AttackerSyncAllOf}
	probes := []ArmsRaceProbe{ProbePushedFile, ProbeImage}
	rows, err := runner.Map(len(attackers)*len(probes), o.runnerOptions(), func(i int) (ArmsRaceRow, error) {
		attacker := attackers[i/len(probes)]
		probe := probes[i%len(probes)]
		row, err := armsRaceCell(perRunSeed(o, "armsrace", i+1), o, attacker, probe)
		if err != nil {
			return ArmsRaceRow{}, fmt.Errorf("arms race %s/%s: %w", attacker, probe, err)
		}
		return row, nil
	})
	if err != nil {
		return ArmsRaceResult{}, err
	}
	return ArmsRaceResult{Rows: rows}, nil
}

func armsRaceCell(seed int64, o Options, attacker ArmsRaceAttacker, probe ArmsRaceProbe) (ArmsRaceRow, error) {
	row := ArmsRaceRow{Attacker: attacker, Probe: probe}
	c, err := NewCloud(seed, WithGuestMemMB(o.GuestMemMB), WithTelemetry(o.Telemetry), WithBackend(o.Backend))
	if err != nil {
		return row, err
	}
	rk, err := c.InstallRootkit(core.InstallConfig{})
	if err != nil {
		return row, err
	}
	// The attacker always impersonates the stock image (GuestX runs the
	// same OS, so the same vendor content sits in its memory).
	if err := rk.MirrorRange(c.VendorImageAt, c.VendorImage.NumPages()); err != nil {
		return row, err
	}
	c.Host.KSM().Start()

	d := o.dedupDetector(c.Host)
	agent := detect.NewGuestAgent(rk.Victim)

	var sync *core.WriteTrackingSync
	switch attacker {
	case AttackerSyncPush:
		// Mirror observed pushes, and track exactly the region they
		// land in (the attacker saw the push arrive there).
		agent.OnLoad = rk.InterceptFilePushes()
		sync = rk.StartWriteTrackingSync(detect.AgentPage, o.DetectPages, core.MirrorPage)
	case AttackerSyncAllOf:
		// Full tracking maintains one live, whole-RAM mirror; no
		// separate (and staleness-prone) push copies.
		sync = rk.StartWriteTrackingSync(0, -1, 0)
	default:
		agent.OnLoad = rk.InterceptFilePushes()
	}
	if sync != nil {
		defer sync.Stop()
	}

	var verdict detect.Verdict
	switch probe {
	case ProbeImage:
		verdict, _, err = d.RunImageProbe(agent, c.VendorImage, c.VendorImageAt)
	default:
		verdict, _, err = d.Run(agent)
	}
	if err != nil {
		return row, err
	}
	row.Verdict = verdict
	if sync != nil {
		row.Traps = sync.Traps()
		row.TrapOverhead = sync.TrapOverhead(c.Host.Backend().Profile.CPU.NestedFaultCost.Duration())
	}
	row.HookVisible = rk.Victim.RAM().HasWriteHook()
	return row, nil
}

// Render draws the matrix.
func (r ArmsRaceResult) Render() string {
	t := report.Table{
		Title:   "Arms race: attacker synchronization vs detector probe choice (paper §VI-D)",
		Headers: []string{"attacker", "probe", "verdict", "traps", "trap cost", "hook visible"},
	}
	for _, row := range r.Rows {
		t.AddRow(string(row.Attacker), string(row.Probe), row.Verdict.String(),
			fmt.Sprintf("%d", row.Traps), row.TrapOverhead.String(),
			fmt.Sprintf("%v", row.HookVisible))
	}
	return t.Render()
}
