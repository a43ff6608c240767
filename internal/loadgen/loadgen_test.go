package loadgen

import (
	"fmt"
	"testing"
	"time"

	"cloudskulk/internal/controlplane"
	"cloudskulk/internal/fleet"
	"cloudskulk/internal/runner"
)

// CancelHeavyMix is impatient-tenant traffic: every fourth call yanks a
// submitted job back, racing the dispatcher for whatever is still queued.
var CancelHeavyMix = Mix{Deploy: 20, Stop: 5, Migrate: 3, Snapshot: 5, List: 22, Usage: 20, Cancel: 25}

func newPlane(t *testing.T, seed int64) *controlplane.Plane {
	t.Helper()
	f, err := fleet.New(seed, fleet.WithHosts(4))
	if err != nil {
		t.Fatal(err)
	}
	return controlplane.New(f, controlplane.Config{MaxQueue: 32, Slots: 4})
}

// TestRunLedgerConsistency: a modest run's ledger adds up — every op is
// accounted once, every accepted mutation reaches a terminal state, and
// the fleet ends consistent with the plane's view.
func TestRunLedgerConsistency(t *testing.T) {
	p := newPlane(t, 3)
	stats, err := Run(p, Options{Tenants: 20, Ops: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Issued != 2000 {
		t.Fatalf("issued = %d", stats.Issued)
	}
	if stats.Mutations+stats.Reads+stats.CancelAttempts != stats.Issued {
		t.Fatalf("mutations %d + reads %d + cancels %d != issued %d",
			stats.Mutations, stats.Reads, stats.CancelAttempts, stats.Issued)
	}
	if got := stats.Accepted + stats.QuotaRejects + stats.AdmissionRejects + stats.OtherRejects; got != stats.Mutations {
		t.Fatalf("submit outcomes %d != mutations %d", got, stats.Mutations)
	}
	if stats.Succeeded+stats.Failed+stats.Cancelled != stats.Accepted {
		t.Fatalf("terminal jobs %d+%d+%d != accepted %d",
			stats.Succeeded, stats.Failed, stats.Cancelled, stats.Accepted)
	}
	if stats.Accepted == 0 || stats.Reads == 0 {
		t.Fatalf("degenerate run: %+v", stats)
	}
	if p.Outstanding() != 0 {
		t.Fatalf("plane not drained: %d outstanding", p.Outstanding())
	}
	if stats.VirtualTime <= 0 {
		t.Fatal("virtual clock did not advance")
	}
	// Plane and fleet agree on the surviving population.
	total := 0
	for _, ten := range p.Tenants() {
		vms, err := p.ListVMs(ten)
		if err != nil {
			t.Fatal(err)
		}
		total += len(vms)
	}
	if got := len(p.Fleet().GuestNames()); got != total {
		t.Fatalf("fleet has %d guests, plane records %d VMs", got, total)
	}
}

// TestRunDeterminism: identical (plane seed, loadgen options) replay to
// identical ledgers and identical final fleet population.
func TestRunDeterminism(t *testing.T) {
	run := func() (Stats, string) {
		p := newPlane(t, 11)
		stats, err := Run(p, Options{Tenants: 10, Ops: 800, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		pop := ""
		for _, g := range p.Fleet().GuestNames() {
			info, err := p.Fleet().Lookup(g)
			if err != nil {
				t.Fatal(err)
			}
			pop += fmt.Sprintf("%s@%s ", g, info.Host)
		}
		return stats, pop
	}
	s1, pop1 := run()
	s2, pop2 := run()
	if s1 != s2 {
		t.Fatalf("ledgers diverged:\n%+v\n%+v", s1, s2)
	}
	if pop1 != pop2 {
		t.Fatalf("populations diverged:\n%s\n%s", pop1, pop2)
	}
}

// TestSeedSensitivity: a different loadgen seed produces a different
// (but still internally consistent) run.
func TestSeedSensitivity(t *testing.T) {
	a, err := Run(newPlane(t, 11), Options{Tenants: 10, Ops: 800, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(newPlane(t, 11), Options{Tenants: 10, Ops: 800, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different seeds produced identical ledgers")
	}
}

// TestQuotaPressure: a one-VM quota forces the generator into quota
// rejects rather than unbounded growth.
func TestQuotaPressure(t *testing.T) {
	p := newPlane(t, 2)
	stats, err := Run(p, Options{
		Tenants: 4, Ops: 600, Seed: 9,
		Quota: controlplane.Quota{MaxVMs: 1, MaxMemMB: 16, MaxJobs: 2},
		Mix:   Mix{Deploy: 50, Stop: 10, List: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.QuotaRejects == 0 {
		t.Fatalf("no quota rejects under a 1-VM quota: %+v", stats)
	}
	for _, ten := range p.Tenants() {
		u, err := p.TenantUsage(ten)
		if err != nil {
			t.Fatal(err)
		}
		if u.VMs > 1 {
			t.Fatalf("%s exceeded quota: %+v", ten, u)
		}
	}
}

// TestAdmissionPressure: a tiny queue and long dispatch latency shed
// load with admission rejects.
func TestAdmissionPressure(t *testing.T) {
	f, err := fleet.New(2, fleet.WithHosts(2))
	if err != nil {
		t.Fatal(err)
	}
	p := controlplane.New(f, controlplane.Config{
		MaxQueue: 2, Slots: 1, DispatchLatency: 50 * time.Millisecond,
	})
	stats, err := Run(p, Options{
		Tenants: 4, Ops: 400, Seed: 1, MeanGap: time.Millisecond,
		Mix: Mix{Deploy: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.AdmissionRejects == 0 {
		t.Fatalf("no admission rejects under a saturating deploy storm: %+v", stats)
	}
}

// TestCancelHeavyLedger: under CancelHeavyMix some queued jobs actually
// die, most cancel draws lose the race to the dispatcher, and the ledger
// still adds up exactly.
func TestCancelHeavyLedger(t *testing.T) {
	f, err := fleet.New(5, fleet.WithHosts(4))
	if err != nil {
		t.Fatal(err)
	}
	p := controlplane.New(f, controlplane.Config{
		MaxQueue: 16, Slots: 2, DispatchLatency: 5 * time.Millisecond,
	})
	stats, err := Run(p, Options{Tenants: 12, Ops: 3000, Seed: 5, Mix: CancelHeavyMix, MeanGap: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CancelAttempts == 0 || stats.Cancelled == 0 {
		t.Fatalf("cancel-heavy mix produced no cancellations: %+v", stats)
	}
	if stats.CancelRaces == 0 {
		t.Fatalf("every cancel draw won the race — the draw is not racing the queue: %+v", stats)
	}
	if stats.Mutations+stats.Reads+stats.CancelAttempts != stats.Issued {
		t.Fatalf("issued %d not fully accounted: %+v", stats.Issued, stats)
	}
	if stats.Succeeded+stats.Failed+stats.Cancelled != stats.Accepted {
		t.Fatalf("terminal jobs %d+%d+%d != accepted %d",
			stats.Succeeded, stats.Failed, stats.Cancelled, stats.Accepted)
	}
}

// TestCancelRacesDeterministicAcrossWorkers: cancel-heavy cells replay
// byte-identically whether the sweep runs serially or on 8 workers — the
// CancelJob race is a virtual-time race, decided by the seed, not by
// host-side scheduling.
func TestCancelRacesDeterministicAcrossWorkers(t *testing.T) {
	sweep := func(workers int) []Stats {
		out, err := runner.Map(6, runner.Options{Workers: workers}, func(i int) (Stats, error) {
			f, err := fleet.New(int64(i+1), fleet.WithHosts(4))
			if err != nil {
				return Stats{}, err
			}
			p := controlplane.New(f, controlplane.Config{
				MaxQueue: 8, Slots: 2, DispatchLatency: 5 * time.Millisecond,
			})
			return Run(p, Options{
				Tenants: 8, Ops: 1200, Seed: int64(100 + i),
				Mix: CancelHeavyMix, MeanGap: time.Millisecond,
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, wide := sweep(1), sweep(8)
	cancelled := 0
	for i := range serial {
		if serial[i] != wide[i] {
			t.Errorf("cell %d diverged across worker counts:\nworkers=1: %+v\nworkers=8: %+v",
				i, serial[i], wide[i])
		}
		cancelled += serial[i].Cancelled
	}
	if cancelled == 0 {
		t.Error("no cell cancelled anything — the race path went unexercised")
	}
}

// TestOptionValidation: nonsense options fail fast.
func TestOptionValidation(t *testing.T) {
	p := newPlane(t, 1)
	if _, err := Run(p, Options{Tenants: 0, Ops: 10}); err == nil {
		t.Fatal("zero tenants accepted")
	}
	if _, err := Run(p, Options{Tenants: 1, Ops: 0}); err == nil {
		t.Fatal("zero ops accepted")
	}
	if _, err := Run(p, Options{Tenants: 1, Ops: 1, Mix: Mix{Deploy: -5, Stop: 5}}); err == nil {
		t.Fatal("degenerate mix accepted")
	}
}
