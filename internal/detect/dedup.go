// Package detect implements the paper's defence — the memory-deduplication
// timing detector run from L0 (§VI) — plus the two alternative approaches
// the paper discusses and dismisses: VMCS memory-forensic scanning
// (Graziano et al.) and VMI OS fingerprinting.
package detect

import (
	"errors"
	"fmt"
	"time"

	"cloudskulk/internal/ksm"
	"cloudskulk/internal/kvm"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/stats"
)

// Detector errors.
var (
	ErrKSMOff  = errors.New("detect: ksm daemon not running")
	ErrNoAgent = errors.New("detect: guest agent has no file loaded")
)

// Verdict is the detector's conclusion.
type Verdict int

// Verdicts.
const (
	// VerdictClean: t1 merged, t2 did not — the only copy of File-A was
	// the guest's and it changed. No hidden layer.
	VerdictClean Verdict = iota + 1
	// VerdictNested: t2 still merged after the guest's copy changed —
	// some *other* memory on this host still holds File-A. A CloudSkulk
	// L1 is impersonating the guest.
	VerdictNested
	// VerdictInconclusive: t1 never merged (KSM too slow / disabled) —
	// the protocol's precondition failed.
	VerdictInconclusive
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictClean:
		return "clean"
	case VerdictNested:
		return "nested-vm rootkit detected"
	case VerdictInconclusive:
		return "inconclusive"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Probe is one timing pass over the probe file: per-page write latencies.
type Probe struct {
	Times []time.Duration
	// MergedFraction is the share of pages whose write latency indicates
	// a copy-on-write break.
	MergedFraction float64
}

// Mean returns the mean per-page write time.
func (p Probe) Mean() time.Duration {
	if len(p.Times) == 0 {
		return 0
	}
	var sum time.Duration
	for _, t := range p.Times {
		sum += t
	}
	return sum / time.Duration(len(p.Times))
}

// MicrosSeries returns the per-page times in microseconds (the Figs. 5-6
// series).
func (p Probe) MicrosSeries() []float64 {
	return stats.DurationsMicros(p.Times)
}

// Evidence carries the three probes the protocol measures.
type Evidence struct {
	// T0: control — a file resident only in L0.
	T0 Probe
	// T1: File-A loaded in L0 after the guest received it.
	T1 Probe
	// T2: File-A loaded in L0 again after the guest changed its copy.
	T2 Probe
	// Elapsed is the protocol's total (virtual) duration: the
	// operational cost of one detection pass.
	Elapsed time.Duration
}

// GuestAgent is the user-side program the paper pairs with the detector:
// it loads File-A into the guest's memory and, on request, changes every
// page (File-A-v2). It runs *inside the guest*, so after a CloudSkulk
// attack it operates on the nested (L2) VM — which is the whole point.
type GuestAgent struct {
	vm   *qemu.VM
	file *mem.File

	// OnLoad, if set, observes every file pushed into the guest. The
	// vendor's push traverses the guest's network path — which, under a
	// CloudSkulk attack, is the rootkit. The attack wires this hook to
	// mirror pushed files into the RITM (core.Rootkit.InterceptFilePushes);
	// mutations made *inside* the guest are invisible to it, which is
	// exactly the asymmetry the detector exploits.
	OnLoad func(f *mem.File)
}

// AgentPage is where the guest agent loads File-A in guest memory, clear
// of the kernel-image region.
const AgentPage = 2048

// NewGuestAgent returns an agent for the given guest, loading files at
// AgentPage.
func NewGuestAgent(vm *qemu.VM) *GuestAgent {
	return &GuestAgent{vm: vm}
}

// Rebind points the agent at a different VM object. The simulation needs
// this after a migration-based attack: the user is still "in their VM",
// but that VM is now the nested one.
func (a *GuestAgent) Rebind(vm *qemu.VM) { a.vm = vm }

// LoadFile loads f into guest memory (the vendor's web-interface push).
func (a *GuestAgent) LoadFile(f *mem.File) error {
	if err := a.vm.RAM().LoadFile(f, AgentPage); err != nil {
		return err
	}
	a.file = f
	if a.OnLoad != nil {
		a.OnLoad(f)
	}
	return nil
}

// MutateFile changes every page of the loaded file (File-A -> File-A-v2),
// writing through the guest so COW sharing on the guest side breaks.
func (a *GuestAgent) MutateFile() error {
	if a.file == nil {
		return ErrNoAgent
	}
	v2 := a.file.Mutated()
	for i, c := range v2.Pages {
		if _, err := a.vm.RAM().Write(AgentPage+i, c); err != nil {
			return err
		}
	}
	a.file = v2
	return nil
}

// MutateRange changes n guest pages starting at page `at` — the image-probe
// protocol's "slightly change each page" step, applied to pages the vendor
// already knows (no fresh push for the attacker to observe).
func (a *GuestAgent) MutateRange(at, n int) error {
	for p := at; p < at+n; p++ {
		c, err := a.vm.RAM().Read(p)
		if err != nil {
			return err
		}
		if _, err := a.vm.RAM().Write(p, mem.MutateContent(c)); err != nil {
			return err
		}
	}
	return nil
}

// DedupDetector runs the paper's protocol from L0.
type DedupDetector struct {
	Host *kvm.Host
	// Pages is the probe-file size (the paper demonstrates with 100 and
	// argues one page suffices).
	Pages int
	// Wait is how long to let ksmd scan between loading and measuring
	// ("we wait for a while").
	Wait time.Duration
	// CostOverride, when non-nil, replaces the host KSM's write-cost
	// model — ablations use it to model hosts with smaller dedup timing
	// gaps.
	CostOverride *ksm.CostModel
}

// NewDedupDetector returns a detector with the paper's parameters.
func NewDedupDetector(host *kvm.Host) *DedupDetector {
	return &DedupDetector{
		Host:  host,
		Pages: 100,
		Wait:  15 * time.Second,
	}
}

// probeNoise is the relative stddev applied to each measured write.
const probeNoise = 0.08

// Run executes the full protocol against the guest behind agent and
// returns the verdict with the timing evidence.
func (d *DedupDetector) Run(agent *GuestAgent) (Verdict, Evidence, error) {
	if !d.Host.KSM().Running() {
		return VerdictInconclusive, Evidence{}, ErrKSMOff
	}
	pages := d.Pages
	if pages <= 0 {
		pages = 100
	}
	start := d.Host.Engine().Now()
	rng := d.Host.Engine().RNG()
	fileA := mem.GenerateFile(rng, "file-a.mp3", pages)
	control := mem.GenerateFile(rng, "control.bin", pages)
	var ev Evidence

	// t0: baseline — control file resident only in L0.
	ev.T0 = d.probe(control, "detect.t0")

	// The vendor pushes File-A to both L0 and the guest.
	if err := agent.LoadFile(fileA); err != nil {
		return VerdictInconclusive, ev, err
	}

	// Step 1: load File-A in L0, wait for merging, measure t1.
	ev.T1 = d.probe(fileA, "detect.t1")

	// Step 2: the guest changes every page; load File-A in L0 again and
	// measure t2.
	if err := agent.MutateFile(); err != nil {
		return VerdictInconclusive, ev, err
	}
	ev.T2 = d.probe(fileA, "detect.t2")
	ev.Elapsed = d.Host.Engine().Now() - start

	return classify(ev), ev, nil
}

// RunImageProbe executes the protocol without pushing any fresh file:
// the probe is a randomly chosen window of pages from the VM image the
// vendor itself provisioned (so the vendor knows their contents and that
// they are resident in the guest — and in any impersonating layer running
// the same image). Because the attacker cannot predict *which* pages the
// detector will pick, evading this variant requires synchronizing the
// whole image region, not just observed file pushes (the paper's §VI-D
// cost argument).
//
// image is the vendor's record of the provisioned content; imageAt is
// where it resides in guest memory.
func (d *DedupDetector) RunImageProbe(agent *GuestAgent, image *mem.File, imageAt int) (Verdict, Evidence, error) {
	if !d.Host.KSM().Running() {
		return VerdictInconclusive, Evidence{}, ErrKSMOff
	}
	pages := d.Pages
	if pages <= 0 {
		pages = 100
	}
	if pages > image.NumPages() {
		pages = image.NumPages()
	}
	rng := d.Host.Engine().RNG()
	start := 0
	if span := image.NumPages() - pages; span > 0 {
		start = rng.Intn(span + 1)
	}
	slice := image.Slice(start, pages)
	control := mem.GenerateFile(rng, "control.bin", pages)
	began := d.Host.Engine().Now()

	var ev Evidence
	ev.T0 = d.probe(control, "detect.t0")
	ev.T1 = d.probe(slice, "detect.t1")
	if err := agent.MutateRange(imageAt+start, pages); err != nil {
		return VerdictInconclusive, ev, err
	}
	ev.T2 = d.probe(slice, "detect.t2")
	ev.Elapsed = d.Host.Engine().Now() - began

	return classify(ev), ev, nil
}

// classify turns the two probes into a verdict, fail-safe: ambiguous
// merged fractions (a host whose dedup timing gap is drowned by noise)
// yield inconclusive rather than a guess.
func classify(ev Evidence) Verdict {
	const (
		hi = 0.8
		lo = 0.2
	)
	if ev.T1.MergedFraction < hi {
		return VerdictInconclusive
	}
	switch {
	case ev.T2.MergedFraction >= hi:
		return VerdictNested
	case ev.T2.MergedFraction <= lo:
		return VerdictClean
	default:
		return VerdictInconclusive
	}
}

// probe loads the file into a fresh L0 address space, waits for ksmd, then
// measures per-page write times and releases the space (the detection
// process exits; its pages leave the merge pool).
func (d *DedupDetector) probe(f *mem.File, label string) Probe {
	eng := d.Host.Engine()
	ksmd := d.Host.KSM()
	costs := ksmd.Costs()
	if d.CostOverride != nil {
		costs = *d.CostOverride
	}

	space := mem.NewSpace(label, f.SizeBytes())
	// Load errors are impossible by construction (space sized to file).
	if err := space.LoadFile(f, 0); err != nil {
		panic(err)
	}
	ksmd.Register(space)
	eng.RunFor(d.Wait)

	p := Probe{Times: make([]time.Duration, f.NumPages())}
	merged := 0
	threshold := (costs.RegularWrite + costs.CowBreakWrite) / 2
	for i := 0; i < f.NumPages(); i++ {
		res, err := space.Write(i, f.Pages[i])
		if err != nil {
			panic(err) // in-range by construction
		}
		t := eng.GaussDuration(costs.WriteCost(res), probeNoise)
		eng.Advance(t)
		p.Times[i] = t
		if t > threshold {
			merged++
		}
	}
	p.MergedFraction = float64(merged) / float64(f.NumPages())
	ksmd.Unregister(space)
	return p
}
