package detect

import (
	"errors"
	"testing"
	"time"

	"cloudskulk/internal/core"
	"cloudskulk/internal/kvm"
	"cloudskulk/internal/migrate"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/vnet"
)

func mustKnown(t *testing.T, db *FingerprintDB, name string) uint64 {
	t.Helper()
	fp, ok := db.Known(name)
	if !ok {
		t.Fatalf("no baseline for %q", name)
	}
	return fp
}

// cleanCloud builds a host with a victim guest and KSM scanning.
func cleanCloud(t *testing.T, seed int64) (*kvm.Host, *migrate.Engine, *qemu.VM) {
	t.Helper()
	eng := sim.NewEngine(seed)
	network := vnet.New(eng)
	h, err := kvm.NewHost(eng, network, "host")
	if err != nil {
		t.Fatal(err)
	}
	me := migrate.NewEngine(eng, network)
	h.SetMigrationService(me)
	cfg := qemu.DefaultConfig("guest0")
	cfg.MemoryMB = 32
	cfg.MonitorPort = 5555
	cfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 2222, GuestPort: 22}}
	vm, err := h.Hypervisor().CreateVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Hypervisor().Launch("guest0"); err != nil {
		t.Fatal(err)
	}
	h.KSM().Start()
	return h, me, vm
}

// infectedCloud builds a host where CloudSkulk has already captured the
// victim.
func infectedCloud(t *testing.T, seed int64) (*kvm.Host, *core.Rootkit) {
	t.Helper()
	h, me, _ := cleanCloud(t, seed)
	rk, err := core.Installer{Host: h, Migration: me}.Install(core.InstallConfig{TargetName: "guest0"})
	if err != nil {
		t.Fatal(err)
	}
	return h, rk
}

func TestVerdictString(t *testing.T) {
	if VerdictClean.String() != "clean" ||
		VerdictNested.String() != "nested-vm rootkit detected" ||
		VerdictInconclusive.String() != "inconclusive" {
		t.Fatal("verdict names")
	}
	if Verdict(42).String() != "verdict(42)" {
		t.Fatal("unknown verdict name")
	}
}

func TestDedupDetectorCleanScenario(t *testing.T) {
	h, _, vm := cleanCloud(t, 1)
	d := NewDedupDetector(h)
	agent := NewGuestAgent(vm)
	verdict, ev, err := d.Run(agent)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.KSM().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if verdict != VerdictClean {
		t.Fatalf("verdict = %v (t0=%v t1=%v t2=%v)", verdict, ev.T0.Mean(), ev.T1.Mean(), ev.T2.Mean())
	}
	// Fig. 5 shape: t1 >> t2 ~= t0.
	if ev.T1.Mean() < 5*ev.T0.Mean() {
		t.Fatalf("t1 (%v) not much larger than t0 (%v)", ev.T1.Mean(), ev.T0.Mean())
	}
	r := float64(ev.T2.Mean()) / float64(ev.T0.Mean())
	if r < 0.5 || r > 2 {
		t.Fatalf("t2/t0 = %.2f, want ~1", r)
	}
	if ev.T1.MergedFraction < 0.9 || ev.T2.MergedFraction > 0.1 || ev.T0.MergedFraction > 0.1 {
		t.Fatalf("merged fractions = %v/%v/%v", ev.T0.MergedFraction, ev.T1.MergedFraction, ev.T2.MergedFraction)
	}
	if len(ev.T1.Times) != 100 {
		t.Fatalf("probe pages = %d", len(ev.T1.Times))
	}
	// One pass costs three merge windows plus the measurement writes.
	if ev.Elapsed < 3*d.Wait || ev.Elapsed > 4*d.Wait {
		t.Fatalf("protocol elapsed = %v for wait %v", ev.Elapsed, d.Wait)
	}
}

func TestDedupDetectorInfectedScenario(t *testing.T) {
	h, rk := infectedCloud(t, 1)
	d := NewDedupDetector(h)
	// The user runs the agent in "their VM" — now the nested one. The
	// rootkit's position on the push path mirrors files into the RITM.
	agent := NewGuestAgent(rk.Victim)
	agent.OnLoad = rk.InterceptFilePushes()
	verdict, ev, err := d.Run(agent)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.KSM().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if verdict != VerdictNested {
		t.Fatalf("verdict = %v (t0=%v t1=%v t2=%v)", verdict, ev.T0.Mean(), ev.T1.Mean(), ev.T2.Mean())
	}
	// Fig. 6 shape: t1 ~= t2 >> t0.
	if ev.T2.Mean() < 5*ev.T0.Mean() {
		t.Fatalf("t2 (%v) not much larger than t0 (%v)", ev.T2.Mean(), ev.T0.Mean())
	}
	r := float64(ev.T2.Mean()) / float64(ev.T1.Mean())
	if r < 0.7 || r > 1.4 {
		t.Fatalf("t2/t1 = %.2f, want ~1", r)
	}
}

func TestDedupDetectorWithoutMirroringStillDetectsNothingOdd(t *testing.T) {
	// If the attacker fails to impersonate (no mirrored file), t2 drops
	// to baseline and the detector reads clean — matching the paper's
	// assumption discussion: detection *relies on* L1 trying to look
	// like L2. The attack is then caught by simpler means (the file
	// push visibly missing from "the guest" the admin inspects).
	h, rk := infectedCloud(t, 1)
	d := NewDedupDetector(h)
	agent := NewGuestAgent(rk.Victim)
	verdict, _, err := d.Run(agent)
	if err != nil {
		t.Fatal(err)
	}
	if verdict != VerdictClean {
		t.Fatalf("verdict = %v", verdict)
	}
}

func TestDedupDetectorRequiresKSM(t *testing.T) {
	h, _, vm := cleanCloud(t, 1)
	h.KSM().Stop()
	d := NewDedupDetector(h)
	if _, _, err := d.Run(NewGuestAgent(vm)); !errors.Is(err, ErrKSMOff) {
		t.Fatalf("err = %v", err)
	}
}

func TestDedupDetectorInconclusiveWhenScanTooSlow(t *testing.T) {
	h, _, vm := cleanCloud(t, 1)
	d := NewDedupDetector(h)
	d.Wait = time.Millisecond // far too short for any merge
	verdict, _, err := d.Run(NewGuestAgent(vm))
	if err != nil {
		t.Fatal(err)
	}
	if verdict != VerdictInconclusive {
		t.Fatalf("verdict = %v", verdict)
	}
}

func TestDedupDetectorSinglePage(t *testing.T) {
	// The paper argues one page suffices.
	h, rk := infectedCloud(t, 3)
	d := NewDedupDetector(h)
	d.Pages = 1
	agent := NewGuestAgent(rk.Victim)
	agent.OnLoad = rk.InterceptFilePushes()
	verdict, ev, err := d.Run(agent)
	if err != nil {
		t.Fatal(err)
	}
	if verdict != VerdictNested {
		t.Fatalf("single-page verdict = %v", verdict)
	}
	if len(ev.T1.Times) != 1 {
		t.Fatalf("probe pages = %d", len(ev.T1.Times))
	}
}

func TestGuestAgentErrors(t *testing.T) {
	_, _, vm := cleanCloud(t, 1)
	agent := NewGuestAgent(vm)
	if err := agent.MutateFile(); !errors.Is(err, ErrNoAgent) {
		t.Fatalf("err = %v", err)
	}
	if agent.vm != vm {
		t.Fatal("agent bound to the wrong VM")
	}
	agent.Rebind(nil)
	if agent.vm != nil {
		t.Fatal("rebind failed")
	}
}

func TestProbeHelpers(t *testing.T) {
	p := Probe{Times: []time.Duration{time.Microsecond, 3 * time.Microsecond}}
	if p.Mean() != 2*time.Microsecond {
		t.Fatalf("mean = %v", p.Mean())
	}
	series := p.MicrosSeries()
	if len(series) != 2 || series[0] != 1 || series[1] != 3 {
		t.Fatalf("series = %v", series)
	}
	if (Probe{}).Mean() != 0 {
		t.Fatal("empty probe mean")
	}
}

func TestVMCSScannerFindsHardwareNesting(t *testing.T) {
	h, rk := infectedCloud(t, 1)
	findings := VMCSScanner{Host: h}.Scan()
	if len(findings) == 0 {
		t.Fatal("no VMCS findings on an infected host")
	}
	for _, f := range findings {
		if f.VMName != rk.RITM.Name() {
			t.Fatalf("VMCS in unexpected VM %q", f.VMName)
		}
	}
}

func TestVMCSScannerCleanHost(t *testing.T) {
	h, _, _ := cleanCloud(t, 1)
	if got := (VMCSScanner{Host: h}.Scan()); len(got) != 0 {
		t.Fatalf("clean host findings = %v", got)
	}
}

func TestVMCSScannerEvadedBySoftwareMMU(t *testing.T) {
	h, me, _ := cleanCloud(t, 2)
	icfg := core.InstallConfig{TargetName: "guest0", HideVMCS: true}
	if _, err := (core.Installer{Host: h, Migration: me}).Install(icfg); err != nil {
		t.Fatal(err)
	}
	if got := (VMCSScanner{Host: h}.Scan()); len(got) != 0 {
		t.Fatalf("software-MMU nesting detected anyway: %v", got)
	}
}

func TestFingerprintDetectorCatchesNaiveAttack(t *testing.T) {
	h, me, vm := cleanCloud(t, 1)
	db := NewFingerprintDB()
	db.Baseline(vm)
	if db.FingerprintOf(vm) != mustKnown(t, db, "guest0") {
		t.Fatal("baseline self-check failed")
	}
	icfg := core.InstallConfig{TargetName: "guest0", Naive: true}
	rk, err := core.Installer{Host: h, Migration: me}.Install(icfg)
	if err != nil {
		t.Fatal(err)
	}
	// The admin fingerprints the VM backing the original PID — the RITM
	// — against guest0's baseline.
	ritmFP := db.FingerprintOf(rk.RITM)
	if ritmFP == mustKnown(t, db, "guest0") {
		t.Fatal("naive attack fingerprint matches baseline")
	}
}

func TestFingerprintDetectorEvadedByImpersonation(t *testing.T) {
	h, me, vm := cleanCloud(t, 1)
	db := NewFingerprintDB()
	db.Baseline(vm)
	rk, err := core.Installer{Host: h, Migration: me}.Install(core.InstallConfig{TargetName: "guest0"})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.FingerprintOf(rk.RITM); got != mustKnown(t, db, "guest0") {
		t.Fatal("impersonated fingerprint does not match baseline")
	}
}

func TestFingerprintNoBaseline(t *testing.T) {
	_, _, vm := cleanCloud(t, 1)
	db := NewFingerprintDB()
	if _, ok := db.Known(vm.Name()); ok {
		t.Fatal("baseline known before Baseline")
	}
}
