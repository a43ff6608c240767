package hv_test

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/hv"
	"cloudskulk/internal/ksm"

	_ "cloudskulk/internal/hv/backends"
)

// TestDefaultBackendIsThePaperCalibration: the registry's default resolves
// to exactly the constants the rest of the tree used before the backend
// layer existed — the invariant the experiment goldens rest on.
func TestDefaultBackendIsThePaperCalibration(t *testing.T) {
	b, err := hv.Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != hv.DefaultName {
		t.Fatalf("Lookup(\"\") = %q, want %q", b.Name, hv.DefaultName)
	}
	if b.Profile.CPU != cpu.DefaultModel() {
		t.Errorf("default CPU model diverged from cpu.DefaultModel()")
	}
	if b.Profile.KSM != ksm.DefaultCostModel() {
		t.Errorf("default KSM cost model diverged from ksm.DefaultCostModel()")
	}
	if b.Profile.BootTime != 15*time.Second || b.Profile.ZeroFraction != 0.35 || b.Profile.VCPUNoise != 0.01 {
		t.Errorf("default boot profile diverged: %+v", b.Profile)
	}
}

// TestLookupUnknownBackend: the typed error carries the registered names
// so the caller's message is self-explanatory.
func TestLookupUnknownBackend(t *testing.T) {
	_, err := hv.Lookup("xen-4.1")
	if !errors.Is(err, hv.ErrUnknownBackend) {
		t.Fatalf("err = %v, want ErrUnknownBackend", err)
	}
	for _, name := range hv.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered backend %q", err, name)
		}
	}
}

// TestBuiltinsRegistered: the backends package contributes at least two
// alternates alongside the default, names are sorted, and every profile
// passed registration validation (implied by being present).
func TestBuiltinsRegistered(t *testing.T) {
	names := hv.Names()
	if len(names) < 3 {
		t.Fatalf("want >= 3 registered backends, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	found := false
	for _, n := range names {
		if n == hv.DefaultName {
			found = true
		}
	}
	if !found {
		t.Fatalf("default %q missing from %v", hv.DefaultName, names)
	}
	all := hv.All()
	if len(all) != len(names) {
		t.Fatalf("All() returned %d backends, Names() %d", len(all), len(names))
	}
	for i, b := range all {
		if b.Name != names[i] {
			t.Errorf("All()[%d] = %q, want %q", i, b.Name, names[i])
		}
		if b.Description == "" {
			t.Errorf("backend %q has no description", b.Name)
		}
	}
}

// TestBackendsDifferWhereItMatters: the alternates are genuinely different
// calibrations of the same mechanics, not renames — exit economics differ
// from the paper's testbed while each keeps a detectable KSM timing gap.
func TestBackendsDifferWhereItMatters(t *testing.T) {
	def, _ := hv.Lookup(hv.DefaultName)
	for _, b := range hv.All() {
		if b.Name == hv.DefaultName {
			continue
		}
		if b.Profile.CPU.ExitCost == def.Profile.CPU.ExitCost &&
			b.Profile.CPU.ExitMultiplier == def.Profile.CPU.ExitMultiplier {
			t.Errorf("backend %q has identical exit economics to the default", b.Name)
		}
		gap := float64(b.Profile.KSM.CowBreakWrite) / float64(b.Profile.KSM.RegularWrite)
		if gap < 4 {
			t.Errorf("backend %q KSM gap %.1fx too narrow for the timing detector", b.Name, gap)
		}
	}
}

// TestRegisterRejectsBadProfiles: the registry refuses profiles that would
// silently break the simulation's core invariants.
func TestRegisterRejectsBadProfiles(t *testing.T) {
	ok := hv.Baseline()
	cases := []struct {
		name   string
		mutate func(*hv.Backend)
	}{
		{"empty name", func(b *hv.Backend) { b.Name = "" }},
		{"duplicate", func(b *hv.Backend) {}}, // Baseline already registered
		{"zero exit cost", func(b *hv.Backend) { b.Name = "t0"; b.Profile.CPU.ExitCost = 0 }},
		{"zero multiplier", func(b *hv.Backend) { b.Name = "t1"; b.Profile.CPU.ExitMultiplier = 0 }},
		{"narrow ksm gap", func(b *hv.Backend) {
			b.Name = "t2"
			b.Profile.KSM.CowBreakWrite = b.Profile.KSM.RegularWrite
		}},
		{"zero boot", func(b *hv.Backend) { b.Name = "t3"; b.Profile.BootTime = 0 }},
		{"bad zero fraction", func(b *hv.Backend) { b.Name = "t4"; b.Profile.ZeroFraction = 1.5 }},
		{"NaN zero fraction", func(b *hv.Backend) { b.Name = "t5"; b.Profile.ZeroFraction = math.NaN() }},
		{"NaN vCPU noise", func(b *hv.Backend) { b.Name = "t6"; b.Profile.VCPUNoise = math.NaN() }},
		{"negative vCPU noise", func(b *hv.Backend) { b.Name = "t7"; b.Profile.VCPUNoise = -3 }},
	}
	for _, tc := range cases {
		b := ok
		tc.mutate(&b)
		if err := hv.Register(b); err == nil {
			t.Errorf("%s: Register accepted a bad profile", tc.name)
		}
	}
	// None of the rejects leaked into the registry.
	for _, n := range hv.Names() {
		if strings.HasPrefix(n, "t") && len(n) == 2 {
			t.Errorf("rejected backend %q leaked into registry", n)
		}
	}
}
