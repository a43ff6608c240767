package scenario

import (
	"fmt"
	"time"

	"cloudskulk/internal/core"
	"cloudskulk/internal/detect"
)

// Outcome is one detector's verdict on one strategy run.
type Outcome struct {
	// Caught reports whether the detector flagged the attack.
	Caught bool
	// Detail is the detector's own account of what it saw.
	Detail string
	// TimeToDetect is the virtual time from scan start to the flag
	// (zero when the attack was missed).
	TimeToDetect time.Duration
	// Overhead is the virtual time the detection pass cost the host.
	Overhead time.Duration
}

// Detector is one roster member. Arm runs before the attack (against the
// clean victim — what the detector can legitimately baseline); Scan runs
// after the strategy executed and settled, and renders the verdict.
// Detectors are per-cell instances: Arm-time state carries into Scan.
type Detector interface {
	Name() string
	Arm(w *World) error
	Scan(w *World) (Outcome, error)
}

// Roster detector names, in matrix column order.
const (
	DetDedupTiming       = "dedup-timing"
	DetInvariantChecksum = "invariant-checksum"
	DetExitSkew          = "exit-skew"
)

// RosterNames lists the detector roster in matrix order.
func RosterNames() []string {
	return []string{DetDedupTiming, DetInvariantChecksum, DetExitSkew}
}

// newDetector builds a fresh roster member for one cell.
func newDetector(name string) (Detector, error) {
	switch name {
	case DetDedupTiming:
		return &dedupDetector{}, nil
	case DetInvariantChecksum:
		return &invariantDetector{}, nil
	case DetExitSkew:
		return &skewDetector{}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown detector %q", name)
	}
}

// dedupDetector adapts the paper's KSM write-timing protocol (PR2): load a
// probe file via the vendor agent, mutate the guest's copy, and time L0
// writes to decide whether a hidden second copy kept the merge alive.
type dedupDetector struct{}

func (d *dedupDetector) Name() string { return DetDedupTiming }

func (d *dedupDetector) Arm(w *World) error { return nil }

func (d *dedupDetector) Scan(w *World) (Outcome, error) {
	det := detect.NewDedupDetector(w.Cloud.Host)
	det.Pages = dedupPages
	det.Wait = dedupWait
	verdict, ev, err := det.Run(w.Agent())
	if err != nil {
		return Outcome{}, err
	}
	o := Outcome{
		Caught:   verdict == detect.VerdictNested,
		Detail:   fmt.Sprintf("verdict=%s", verdict),
		Overhead: ev.Elapsed,
	}
	if o.Caught {
		o.TimeToDetect = ev.Elapsed
	}
	return o, nil
}

// invariantDetector adapts the Hello-rootKitty-style checksum audit: the
// kernel-image range of the provisioned guest is hashed at arm time, and
// after the attack the same invariant keeps being audited against whatever
// L0 now presents as that guest.
type invariantDetector struct {
	inner *detect.InvariantDetector
}

func (d *invariantDetector) Name() string { return DetInvariantChecksum }

func (d *invariantDetector) Arm(w *World) error {
	d.inner = detect.NewInvariantDetector(w.Cloud.Eng, w.Cloud.Victim.RAM(), 0, core.KernelPages)
	return nil
}

func (d *invariantDetector) Scan(w *World) (Outcome, error) {
	eng := w.Cloud.Eng
	d.inner.Rebind(w.AdminSpace())
	start := eng.Now()
	var o Outcome
	for i := 0; i < maxAudits; i++ {
		eng.RunFor(auditEvery)
		if d.inner.Audit() {
			o.Caught = true
			o.TimeToDetect = eng.Now() - start
			break
		}
	}
	o.Overhead = d.inner.Overhead()
	o.Detail = fmt.Sprintf("audits=%d hits=%d", d.inner.Audits(), d.inner.Hits())
	return o, nil
}

// skewDetectorReadCost is what one pass over the host's exit counters
// costs the admin (a perf-counter read, not a memory scan).
const skewDetectorReadCost = time.Millisecond

// skewDetector adapts the exit-class-skew read over PR3's telemetry: real
// exit volume attributed to deeper-than-L1 execution is the nesting
// signature; a floor keeps device-model jitter from flagging.
type skewDetector struct{}

func (d *skewDetector) Name() string { return DetExitSkew }

func (d *skewDetector) Arm(w *World) error { return nil }

func (d *skewDetector) Scan(w *World) (Outcome, error) {
	w.Cloud.Eng.Advance(skewDetectorReadCost)
	flagged, exits, ops := detect.NewSkewDetector(w.Reg).Scan()
	o := Outcome{
		Caught:   flagged,
		Detail:   fmt.Sprintf("deep-exits=%d deep-ops=%d", exits, ops),
		Overhead: skewDetectorReadCost,
	}
	if flagged {
		o.TimeToDetect = skewDetectorReadCost
	}
	return o, nil
}
