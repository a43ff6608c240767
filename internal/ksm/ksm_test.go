package ksm

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cloudskulk/internal/mem"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/telemetry"
)

func newDaemon(t *testing.T) (*sim.Engine, *Daemon) {
	t.Helper()
	eng := sim.NewEngine(1)
	return eng, New(eng, DefaultCostModel())
}

func mustWrite(t *testing.T, s *mem.Space, p int, c mem.Content) {
	t.Helper()
	if _, err := s.Write(p, c); err != nil {
		t.Fatal(err)
	}
}

func TestMergeTwoIdenticalPages(t *testing.T) {
	_, d := newDaemon(t)
	a := mem.NewSpace("a", mem.PageSize*4)
	b := mem.NewSpace("b", mem.PageSize*4)
	mustWrite(t, a, 0, 0x1111)
	mustWrite(t, b, 2, 0x1111)
	d.Register(a)
	d.Register(b)
	// One full pass records candidates and merges pairs that meet.
	d.FullPass()
	d.FullPass()
	if _, shared := a.Shared(0); !shared {
		t.Fatal("a[0] not merged")
	}
	if _, shared := b.Shared(2); !shared {
		t.Fatal("b[2] not merged")
	}
	ga, _ := a.Shared(0)
	gb, _ := b.Shared(2)
	if ga != gb {
		t.Fatal("pages merged into different groups")
	}
	if ga.Refs != 2 {
		t.Fatalf("refs = %d", ga.Refs)
	}
	// At least the two 0x1111 attaches; the remaining zero pages of both
	// spaces also merge with each other, which is realistic KSM behaviour.
	if d.Merges() < 2 {
		t.Fatalf("merges = %d, want >= 2 attaches", d.Merges())
	}
}

func TestThirdPageJoinsStableGroup(t *testing.T) {
	_, d := newDaemon(t)
	a := mem.NewSpace("a", mem.PageSize*3)
	for p := 0; p < 3; p++ {
		mustWrite(t, a, p, 0xbeef)
	}
	d.Register(a)
	d.FullPass()
	d.FullPass()
	g, shared := a.Shared(2)
	if !shared {
		t.Fatal("third page not merged")
	}
	if g.Refs != 3 {
		t.Fatalf("refs = %d, want 3", g.Refs)
	}
	if liveGroups(d) != 1 {
		t.Fatalf("groups = %d", liveGroups(d))
	}
}

// The telemetry counters track the daemon's own ledger: every scanned
// page, and both kinds of merge — a fresh pair out of the unstable tree
// and a later page attaching to the stable group.
func TestTelemetryMatchesLedger(t *testing.T) {
	_, d := newDaemon(t)
	reg := telemetry.NewRegistry()
	d.SetTelemetry(reg)
	a := mem.NewSpace("a", mem.PageSize*3)
	for p := 0; p < 3; p++ {
		mustWrite(t, a, p, 0xbeef)
	}
	d.Register(a)
	d.ScanN(2) // page 1 pairs with page 0: a new stable group
	d.ScanN(7) // page 2 attaches to it, then the budget wraps the region
	if g, _ := a.Shared(2); g == nil || g.Refs != 3 || d.Merges() != 2 {
		t.Fatalf("want one pair merge and one stable attach, got merges=%d group=%+v", d.Merges(), g)
	}
	if got := reg.Counter("ksm_pages_scanned_total").Value(); got != d.pagesScan || got != 9 {
		t.Fatalf("ksm_pages_scanned_total = %d, ledger = %d, want 9", got, d.pagesScan)
	}
	if got := reg.Counter("ksm_merges_total").Value(); got != d.Merges() {
		t.Fatalf("ksm_merges_total = %d, Merges = %d", got, d.Merges())
	}
}

func TestDistinctContentNeverMerges(t *testing.T) {
	_, d := newDaemon(t)
	a := mem.NewSpace("a", mem.PageSize*8)
	for p := 0; p < 8; p++ {
		mustWrite(t, a, p, mem.Content(0x100+p))
	}
	d.Register(a)
	d.FullPass()
	d.FullPass()
	if d.Merges() != 0 {
		t.Fatalf("merges = %d, want 0", d.Merges())
	}
	for p := 0; p < 8; p++ {
		if _, shared := a.Shared(p); shared {
			t.Fatalf("page %d merged despite unique content", p)
		}
	}
}

func TestVolatilePagesSkipped(t *testing.T) {
	_, d := newDaemon(t)
	a := mem.NewSpace("a", mem.PageSize*2)
	mustWrite(t, a, 0, 0x7)
	mustWrite(t, a, 1, 0x7)
	if err := a.MarkVolatile(0, true); err != nil {
		t.Fatal(err)
	}
	if err := a.MarkVolatile(1, true); err != nil {
		t.Fatal(err)
	}
	d.Register(a)
	d.FullPass()
	d.FullPass()
	if d.Merges() != 0 {
		t.Fatal("volatile pages merged")
	}
}

func TestWriteAfterMergeBreaksCOWAndRemerges(t *testing.T) {
	_, d := newDaemon(t)
	a := mem.NewSpace("a", mem.PageSize)
	b := mem.NewSpace("b", mem.PageSize)
	mustWrite(t, a, 0, 0x42)
	mustWrite(t, b, 0, 0x42)
	d.Register(a)
	d.Register(b)
	d.FullPass()
	d.FullPass()
	if _, shared := a.Shared(0); !shared {
		t.Fatal("not merged")
	}
	res, err := a.Write(0, 0x42) // same content, still COW-breaks
	if err != nil {
		t.Fatal(err)
	}
	if !res.CowBroken {
		t.Fatal("write did not break COW")
	}
	if _, shared := a.Shared(0); shared {
		t.Fatal("still shared after write")
	}
	// b keeps the group; a re-merges on later scans via the stable tree.
	d.FullPass()
	d.FullPass()
	if _, shared := a.Shared(0); !shared {
		t.Fatal("page did not re-merge")
	}
}

func TestStaleCandidatePartnerChanged(t *testing.T) {
	_, d := newDaemon(t)
	a := mem.NewSpace("a", mem.PageSize)
	b := mem.NewSpace("b", mem.PageSize)
	mustWrite(t, a, 0, 0x5)
	d.Register(a)
	d.Register(b)
	// First pass records a[0] as candidate for 0x5 (b[0] is zero and
	// becomes candidate for zero).
	d.FullPass()
	// Now a's page changes before a partner shows up.
	mustWrite(t, a, 0, 0x6)
	mustWrite(t, b, 0, 0x5)
	d.FullPass()
	d.FullPass()
	if _, shared := b.Shared(0); shared {
		t.Fatal("merged with stale candidate")
	}
}

func TestScanNWithNoRegions(t *testing.T) {
	_, d := newDaemon(t)
	if got := d.ScanN(100); got != 0 {
		t.Fatalf("ScanN on empty = %d", got)
	}
}

func TestRegisterIdempotentAndUnregister(t *testing.T) {
	_, d := newDaemon(t)
	a := mem.NewSpace("a", mem.PageSize)
	d.Register(a)
	d.Register(a)
	if d.NumRegions() != 1 {
		t.Fatalf("regions = %d", d.NumRegions())
	}
	d.Unregister(a)
	if d.NumRegions() != 0 {
		t.Fatalf("regions after unregister = %d", d.NumRegions())
	}
	d.Unregister(a) // no-op
}

// TestUnregisterBehindCursorKeepsLap: like ksmd's cursor, which names the
// current mm_slot, the scan cursor stays on the region being scanned when a
// region it has already passed is unregistered, so that region's lap goes
// on where it stopped.
func TestUnregisterBehindCursorKeepsLap(t *testing.T) {
	_, d := newDaemon(t)
	var sp [3]*mem.Space
	for i := range sp {
		sp[i] = mem.NewSpace(string(rune('a'+i)), 4*mem.PageSize)
		for p := 0; p < 4; p++ {
			mustWrite(t, sp[i], p, mem.Content(0x100*(i+1)+p))
		}
		d.Register(sp[i])
	}
	d.ScanN(6) // a[0..3], b[0..1]
	d.Unregister(sp[0])
	d.ScanN(2)
	b, c := d.regionOf(sp[1]), d.regionOf(sp[2])
	if b.next != 4 || b.scan.flags[3]&flagHasSum == 0 || c.scan != nil {
		t.Fatalf("the wake after Unregister(a) did not finish b's lap: b.next=%d, c visited=%v", b.next, c.scan != nil)
	}
	mustCheck(t, d)
}

func TestDaemonTickerScans(t *testing.T) {
	eng, d := newDaemon(t)
	a := mem.NewSpace("a", mem.PageSize*2)
	b := mem.NewSpace("b", mem.PageSize*2)
	mustWrite(t, a, 1, 0x77)
	mustWrite(t, b, 1, 0x77)
	d.Register(a)
	d.Register(b)
	d.Start()
	d.Start() // idempotent
	if !d.Running() {
		t.Fatal("not running after Start")
	}
	eng.RunFor(time.Second)
	d.Stop()
	if d.Running() {
		t.Fatal("running after Stop")
	}
	if _, shared := a.Shared(1); !shared {
		t.Fatal("daemon never merged")
	}
	if d.pagesScan == 0 {
		t.Fatal("no pages scanned")
	}
}

func TestDeadGroupEvictedFromStableTree(t *testing.T) {
	_, d := newDaemon(t)
	a := mem.NewSpace("a", mem.PageSize)
	b := mem.NewSpace("b", mem.PageSize)
	mustWrite(t, a, 0, 0x9)
	mustWrite(t, b, 0, 0x9)
	d.Register(a)
	d.Register(b)
	d.FullPass()
	d.FullPass()
	// Kill the group entirely.
	mustWrite(t, a, 0, 0xA)
	mustWrite(t, b, 0, 0xB)
	if liveGroups(d) != 0 {
		t.Fatalf("live groups = %d", liveGroups(d))
	}
	// New pair with the old content must still merge (stale stable entry
	// must not poison it).
	mustWrite(t, a, 0, 0x9)
	mustWrite(t, b, 0, 0x9)
	d.FullPass()
	d.FullPass()
	d.FullPass()
	if _, shared := a.Shared(0); !shared {
		t.Fatal("remerge after group death failed")
	}
}

func TestCostModel(t *testing.T) {
	c := DefaultCostModel()
	if c.WriteCost(mem.WriteResult{CowBroken: true}) != c.CowBreakWrite {
		t.Fatal("cow write cost wrong")
	}
	if c.WriteCost(mem.WriteResult{}) != c.RegularWrite {
		t.Fatal("regular write cost wrong")
	}
	if c.CowBreakWrite < 10*c.RegularWrite {
		t.Fatal("cost model lost the order-of-magnitude dedup gap")
	}
}

// Property: after two full passes over any pair of spaces, every pair of
// merged pages is content-equal (soundness: KSM never merges different
// pages), and contents observed by readers never change due to merging.
func TestMergeSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(seed)
		d := New(eng, DefaultCostModel())
		a := mem.NewSpace("a", mem.PageSize*64)
		b := mem.NewSpace("b", mem.PageSize*64)
		// Draw from a tiny content alphabet to force many duplicates.
		for p := 0; p < 64; p++ {
			if _, err := a.Write(p, mem.Content(rng.Intn(8))); err != nil {
				return false
			}
			if _, err := b.Write(p, mem.Content(rng.Intn(8))); err != nil {
				return false
			}
		}
		before := append(a.Snapshot(), b.Snapshot()...)
		d.Register(a)
		d.Register(b)
		d.FullPass()
		d.FullPass()
		after := append(a.Snapshot(), b.Snapshot()...)
		for i := range before {
			if before[i] != after[i] {
				return false // merging changed observable contents
			}
		}
		for _, s := range []*mem.Space{a, b} {
			for p := 0; p < 64; p++ {
				if g, shared := s.Shared(p); shared {
					if g.Content != s.MustRead(p) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// liveGroups counts the stable tree's live (ref > 0) groups.
func liveGroups(d *Daemon) int {
	n := 0
	for _, g := range d.stable {
		if g.Refs > 0 {
			n++
		}
	}
	return n
}
