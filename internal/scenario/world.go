package scenario

import (
	"fmt"
	"time"

	"cloudskulk/internal/core"
	"cloudskulk/internal/cpu"
	"cloudskulk/internal/detect"
	"cloudskulk/internal/experiments"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/telemetry"
	"cloudskulk/internal/workload"
)

// ramCopyPageCost is the attacker-side cost of copying one page when
// re-homing the captive guest a level deeper.
const ramCopyPageCost = 500 * time.Nanosecond

// World is one arms-race cell's universe: a private seeded testbed, the
// strategy being played, and the attack state the detectors probe. Each
// cell of the coverage matrix owns exactly one World, so cells are
// independent and the matrix is byte-identical at any worker count.
type World struct {
	Cloud *experiments.Cloud
	Reg   *telemetry.Registry
	Spec  Spec

	rk     *core.Rootkit
	victim *qemu.VM // the VM the user is "in" (moves a level under nest-deep)
	agent  *detect.GuestAgent
	churn  *sim.Ticker

	// atkWrites counts attacker-side page writes (churn, dirty shaping,
	// deep-nest RAM copy) — the strategy's memory-side cost.
	atkWrites uint64
}

// newWorld builds a cell's testbed: the experiments package's cloud (host,
// migration engine, victim "guest0" of guestMemMB with the vendor image
// provisioned) on the given backend, with a cell-private telemetry
// registry wired through the stack. The KSM daemon starts only once the
// strategy installs — same protocol as the paper's infected-host runs.
func newWorld(seed int64, backend string, spec Spec) (*World, error) {
	reg := telemetry.NewRegistry()
	c, err := experiments.NewCloud(seed,
		experiments.WithGuestMemMB(guestMemMB),
		experiments.WithTelemetry(reg),
		experiments.WithBackend(backend))
	if err != nil {
		return nil, err
	}
	return &World{Cloud: c, Reg: reg, Spec: spec, victim: c.Victim}, nil
}

// Agent returns the vendor-side guest agent, bound to whatever VM the user
// currently occupies. Nil before the strategy executed.
func (w *World) Agent() *detect.GuestAgent { return w.agent }

// AdminSpace returns the RAM of the guest the cloud admin believes they
// are hosting: the L0 hypervisor's view. After a CloudSkulk install this
// is the RITM's memory — which is the whole point.
func (w *World) AdminSpace() *mem.Space {
	hv := w.Cloud.Host.Hypervisor()
	if vm, ok := hv.VM("guest0"); ok {
		return vm.RAM()
	}
	if vms := hv.VMs(); len(vms) > 0 {
		return vms[0].RAM()
	}
	return w.Cloud.Victim.RAM()
}

// AttackWrites returns the attacker's page-write cost so far.
func (w *World) AttackWrites() uint64 { return w.atkWrites }

// GatedPages reports how many of the RITM's pages the KSM volatility gate
// currently holds out of the merge tree — the footprint churn-based
// evasion leaves in the scanner.
func (w *World) GatedPages() int {
	if w.rk == nil {
		return 0
	}
	return w.Cloud.Host.KSM().GatedPages(w.rk.RITM.RAM())
}

// Execute plays the strategy: wait out the install timing, run the
// CloudSkulk installer (shaped by migration noise if the spec says so),
// start KSM, apply the kind's post-install behaviour (content churn,
// deeper nesting), and drive the captive guest's daily workload.
func (w *World) Execute() error {
	eng := w.Cloud.Eng
	if w.Spec.Install > 0 {
		eng.RunFor(w.Spec.Install)
	}

	// Dirty-rate shaping: benign-looking page churn on the victim during
	// the install window, so the install's migration hides in a noisy
	// migration regime. The rate must stay below migration bandwidth or
	// the attacker's own migration never converges.
	var bg *workload.Background
	if w.Spec.Kind == KindShapeDirty {
		bg = workload.StartBackground(workload.VMContext(w.Cloud.Victim), workload.Profile{
			Name:               "scenario.shape",
			DirtyPagesPerSec:   float64(w.Spec.DirtyPPS),
			WorkingSetFraction: 0.1,
			DirtyRateJitter:    0.05,
		})
	}

	rk, err := w.Cloud.InstallRootkit(core.InstallConfig{})
	if bg != nil {
		bg.Stop()
		w.atkWrites += bg.PagesDirtied()
	}
	if err != nil {
		return fmt.Errorf("scenario: install: %w", err)
	}
	w.rk = rk
	w.victim = rk.Victim

	// The detection-side precondition, uniform across strategies: the
	// host's KSM daemon scans from here on.
	w.Cloud.Host.KSM().Start()

	// Impersonation upkeep: mirror the vendor's stock image so the RITM
	// is plausible to image probes, and intercept file pushes like the
	// paper's attacker.
	if err := rk.MirrorRange(w.Cloud.VendorImageAt, w.Cloud.VendorImage.NumPages()); err != nil {
		return fmt.Errorf("scenario: mirror image: %w", err)
	}
	w.agent = detect.NewGuestAgent(rk.Victim)
	w.agent.OnLoad = rk.InterceptFilePushes()

	switch w.Spec.Kind {
	case KindEvadeKSM:
		w.startChurn()
	case KindNestDeep:
		if err := w.nestDeeper(); err != nil {
			return err
		}
	}

	w.runWorkload()
	return nil
}

// StopChurn halts the evasion ticker (matrix teardown).
func (w *World) StopChurn() {
	if w.churn != nil {
		w.churn.Stop()
	}
}

// churnRegions resolves the spec's scope to RITM page ranges.
func (w *World) churnRegions() [][2]int {
	var out [][2]int
	kernel := [2]int{0, core.KernelPages}
	image := [2]int{w.Cloud.VendorImageAt, w.Cloud.VendorImageAt + w.Cloud.VendorImage.NumPages()}
	// The push mirror: where intercepted file pushes land. Churn a probe-
	// file-sized window; the attacker knows their own mirror layout.
	push := [2]int{core.MirrorPage, core.MirrorPage + 256}
	switch w.Spec.Scope {
	case ScopeSharedKernel:
		out = append(out, kernel)
	case ScopeSharedImage:
		out = append(out, image, push)
	case ScopeSharedAll:
		out = append(out, kernel, image, push)
	}
	return out
}

// startChurn begins the KSM-aware evasion: every interval, rewrite each
// in-scope RITM page with fresh content. Each rewrite steps an LCG so
// consecutive scanner visits always see a different sum — the pages live
// permanently behind ksmd's volatility gate and never become merge
// partners for an L0 probe.
func (w *World) startChurn() {
	ram := w.rk.RITM.RAM()
	regions := w.churnRegions()
	state := w.Cloud.Eng.RNG().Uint64() | 1
	w.churn = sim.NewTicker(w.Cloud.Eng, w.Spec.Churn, "scenario.churn", func() {
		for _, r := range regions {
			for p := r[0]; p < r[1] && p < ram.NumPages(); p++ {
				state = state*6364136223846793005 + 1442695040888963407
				if _, err := ram.Write(p, mem.Content(state|1)); err != nil {
					return
				}
				w.atkWrites++
			}
		}
	})
}

// nestDeeper re-homes the captive guest one level down: an attacker shell
// VM inside the RITM's hypervisor becomes an L2 hypervisor host, a twin of
// the victim boots at L3, the victim's memory is copied across, and the
// original L2 captive is destroyed. The user's session continues in the
// twin — now two hypervisors away from the hardware.
func (w *World) nestDeeper() error {
	rk := w.rk
	eng := w.Cloud.Eng
	victimName := rk.Victim.Name()

	shellCfg := qemu.DefaultConfig("shell0")
	shellCfg.MemoryMB = rk.Victim.Config().MemoryMB * 2
	if _, err := rk.InnerHV.CreateVM(shellCfg); err != nil {
		return fmt.Errorf("scenario: shell vm: %w", err)
	}
	if err := rk.InnerHV.Launch("shell0"); err != nil {
		return fmt.Errorf("scenario: shell launch: %w", err)
	}
	inner2, err := rk.InnerHV.EnableNesting("shell0")
	if err != nil {
		return fmt.Errorf("scenario: nest shell: %w", err)
	}

	twinCfg := rk.Victim.Config().Clone()
	twinCfg.Incoming = ""
	twin, err := inner2.CreateVM(twinCfg)
	if err != nil {
		return fmt.Errorf("scenario: twin vm: %w", err)
	}
	if err := inner2.Launch(victimName); err != nil {
		return fmt.Errorf("scenario: twin launch: %w", err)
	}

	// Carry the captive guest's state over, page by page, at attacker
	// expense, then retire the L2 copy.
	snap := rk.Victim.RAM().Snapshot()
	for p, c := range snap {
		if _, err := twin.RAM().Write(p, c); err != nil {
			return fmt.Errorf("scenario: twin copy: %w", err)
		}
	}
	twin.RAM().ClearDirty()
	eng.Advance(time.Duration(len(snap)) * ramCopyPageCost)
	w.atkWrites += uint64(len(snap))

	if err := rk.InnerHV.Kill(victimName); err != nil {
		return fmt.Errorf("scenario: retire L2 captive: %w", err)
	}
	w.victim = twin
	w.agent.Rebind(twin)
	return nil
}

// runWorkload drives the captive guest's post-attack daily work: a mix of
// kernel round trips, device I/O, and compute, scaled by the spec. This is
// the exit-class telemetry the skew detector feeds on — and under
// nest-deep it executes at L3, where exit multiplication compounds.
func (w *World) runWorkload() {
	n := w.Spec.Ops
	if n <= 0 {
		return
	}
	v := w.victim.VCPU()
	v.Exec(cpu.SyscallOp("scenario.null-call", cpu.Nanos(150), 1, 0), n)
	v.Exec(cpu.IOOp("scenario.blk-read", cpu.Micros(2), 2), n/4)
	v.Exec(cpu.ALUOp("scenario.mix", cpu.Nanos(5)), n)
}
