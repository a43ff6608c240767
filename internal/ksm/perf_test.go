package ksm

import (
	"math/rand"
	"testing"

	"cloudskulk/internal/mem"
	"cloudskulk/internal/sim"
)

// TestFirstVisitNotGated: freshly registered regions (the detection
// protocol's probe spaces) merge on the usual two-pass schedule — the
// checksum gate never fires on a page's first visit.
func TestFirstVisitNotGated(t *testing.T) {
	_, d := newDaemon(t)
	a := mem.NewSpace("a", mem.PageSize*2)
	b := mem.NewSpace("b", mem.PageSize*2)
	mustWrite(t, a, 0, 0x7777)
	mustWrite(t, b, 0, 0x7777)
	d.Register(a)
	d.Register(b)
	if got := d.FullPass(); got == 0 {
		t.Fatal("first pass over fresh regions merged nothing")
	}
	if _, shared := a.Shared(0); !shared {
		t.Fatal("a[0] not merged on the fresh-region schedule")
	}
	if d.ChecksumSkips() != 0 {
		t.Fatalf("checksum gate fired %d times on first visits", d.ChecksumSkips())
	}
}

// TestSingleChangeNotGated: a page that changed once since its previous
// visit still enters the unstable tree on that same visit — one-shot
// writes (migration fills, the detector's file pushes) merge on the exact
// schedule the ungated scanner had.
func TestSingleChangeNotGated(t *testing.T) {
	_, d := newDaemon(t)
	a := mem.NewSpace("a", mem.PageSize)
	b := mem.NewSpace("b", mem.PageSize)
	mustWrite(t, a, 0, 0x7777)
	mustWrite(t, b, 0, 0x2)
	d.Register(a)
	d.Register(b)
	d.FullPass() // a[0] becomes the 0x7777 candidate; checksums recorded

	mustWrite(t, b, 0, 0x7777)
	if merged := d.FullPass(); merged == 0 {
		t.Fatal("once-changed page did not merge on its next visit")
	}
	if _, shared := b.Shared(0); !shared {
		t.Fatal("b[0] not merged")
	}
	if d.ChecksumSkips() != 0 {
		t.Fatalf("ChecksumSkips = %d, want 0 for a single change", d.ChecksumSkips())
	}
}

// TestSustainedChurnGated: pages whose content changed on two consecutive
// visits are kept out of the unstable tree until they hold still for a
// full cycle — ksmd's oldchecksum heuristic applied to sustained churn.
func TestSustainedChurnGated(t *testing.T) {
	_, d := newDaemon(t)
	a := mem.NewSpace("a", mem.PageSize)
	b := mem.NewSpace("b", mem.PageSize)
	mustWrite(t, a, 0, 0x1)
	mustWrite(t, b, 0, 0x2)
	d.Register(a)
	d.Register(b)
	d.FullPass() // checksums recorded

	mustWrite(t, a, 0, 0x10)
	mustWrite(t, b, 0, 0x20)
	d.FullPass() // first change: strike recorded, still inserted

	// Second consecutive change — both land on the same content, but the
	// gate holds them out of the tree this visit.
	mustWrite(t, a, 0, 0xABCD)
	mustWrite(t, b, 0, 0xABCD)
	if merged := d.FullPass(); merged != 0 {
		t.Fatalf("churning pages merged on the gated pass (merged=%d)", merged)
	}
	if d.ChecksumSkips() != 2 {
		t.Fatalf("ChecksumSkips = %d after gated pass, want 2", d.ChecksumSkips())
	}
	if merged := d.FullPass(); merged == 0 {
		t.Fatal("pages that held still for a full cycle did not merge")
	}
	if _, shared := a.Shared(0); !shared {
		t.Fatal("a[0] not merged after settling")
	}
}

// TestStableTreeNotGated: joining an existing stable group happens even on
// the visit right after the page changed — ksmd checks the stable tree
// before the checksum heuristic.
func TestStableTreeNotGated(t *testing.T) {
	_, d := newDaemon(t)
	a := mem.NewSpace("a", mem.PageSize*2)
	late := mem.NewSpace("late", mem.PageSize)
	mustWrite(t, a, 0, 0x5555)
	mustWrite(t, a, 1, 0x5555)
	mustWrite(t, late, 0, 0x1)
	d.Register(a)
	d.Register(late)
	d.FullPass()
	d.FullPass()
	if _, shared := a.Shared(1); !shared {
		t.Fatal("setup: stable group not formed")
	}
	// late[0] churns (one change already on record) and then takes on the
	// stable content. The volatility gate would hold it out of the
	// unstable tree — but the stable lookup happens first, so it attaches
	// on this very visit.
	mustWrite(t, late, 0, 0x2)
	d.FullPass()
	mustWrite(t, late, 0, 0x5555)
	d.FullPass()
	if _, shared := late.Shared(0); !shared {
		t.Fatal("changed page did not join the stable tree (stable lookup must not be gated)")
	}
	if d.ChecksumSkips() != 0 {
		t.Fatalf("ChecksumSkips = %d; stable-tree attach must pre-empt the gate", d.ChecksumSkips())
	}
}

// TestSteadyScanWakeZeroAlloc: a scan wake over settled regions — every
// page either merged or its own unchanged candidate — allocates nothing.
func TestSteadyScanWakeZeroAlloc(t *testing.T) {
	_, d := newDaemon(t)
	s := mem.NewSpace("g", 256*mem.PageSize)
	for p := 0; p < 256; p++ {
		// Half unique pages, half mergeable duplicates.
		c := mem.Content(0x1000 + p)
		if p%2 == 0 {
			c = 0x42
		}
		mustWrite(t, s, p, c)
	}
	d.Register(s)
	d.FullPass()
	d.FullPass() // settle: merges done, candidates recorded
	if !settled(d, s) {
		t.Fatal("region not settled after a lap of no-op visits")
	}
	allocs := testing.AllocsPerRun(100, func() {
		d.ScanN(256)
	})
	if allocs != 0 {
		t.Fatalf("settled scan wake allocates %v objects/op, want 0", allocs)
	}
	// Rewriting a unique page with its own content moves the space's
	// generation, so the next wake examines every page again.
	allocs = testing.AllocsPerRun(100, func() {
		mustWrite(t, s, 1, 0x1001)
		if settled(d, s) {
			t.Fatal("write did not unsettle the region")
		}
		d.ScanN(256)
	})
	if allocs != 0 {
		t.Fatalf("examined steady-state scan wake allocates %v objects/op, want 0", allocs)
	}
}

// BenchmarkScanNSettled times one ksmd wake (the default 5000 pages) over a
// 1 GiB guest whose merges are done: "settled" skips the region, and
// "unsettled" first rewrites one unique page with its own content, so the
// wake examines each page and finds nothing to do.
func BenchmarkScanNSettled(b *testing.B) {
	const pages = 1 << 18 // 1 GiB
	setup := func(b *testing.B) (*Daemon, *mem.Space, int, mem.Content) {
		d := New(nil, DefaultCostModel())
		s := mem.NewSpace("guest", pages*mem.PageSize)
		s.FillRandom(rand.New(rand.NewSource(1)), 0.3)
		d.Register(s)
		d.FullPass()
		d.FullPass()
		if !settled(d, s) {
			b.Fatal("region not settled")
		}
		for p := 0; p < pages; p++ {
			if c, shared, _ := s.PageInfo(p); !shared {
				return d, s, p, c
			}
		}
		b.Fatal("no unique page")
		return nil, nil, 0, 0
	}
	wake := pagesPerScan
	b.Run("settled", func(b *testing.B) {
		d, _, _, _ := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.ScanN(wake)
		}
	})
	b.Run("unsettled", func(b *testing.B) {
		d, s, p, c := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Write(p, c); err != nil {
				b.Fatal(err)
			}
			d.ScanN(wake)
		}
	})
}

// TestChurnStreakGatedUntilStill: a page rewritten before every pass trips
// the gate from its second consecutive change onward; once it holds still
// for one pass the streak resets and it is re-admitted.
func TestChurnStreakGatedUntilStill(t *testing.T) {
	_, d := newDaemon(t)
	s := mem.NewSpace("g", mem.PageSize)
	mustWrite(t, s, 0, 0x1)
	d.Register(s)
	d.FullPass()
	for i := 0; i < 5; i++ {
		mustWrite(t, s, 0, mem.Content(0x100+i))
		d.FullPass()
	}
	// The first change (0x100) inserted on the legacy schedule; the four
	// after it were consecutive changes and got gated.
	if d.ChecksumSkips() != 4 {
		t.Fatalf("ChecksumSkips = %d, want 4", d.ChecksumSkips())
	}
	for i := 1; i < 5; i++ {
		if _, ok := d.cand.find(mem.Content(0x100 + i)); ok {
			t.Fatalf("churned content %#x entered the unstable tree", 0x100+i)
		}
	}
	// One quiet pass resets the streak and admits the settled content.
	d.FullPass()
	if _, ok := d.cand.find(0x104); !ok {
		t.Fatal("settled page was not re-admitted to the unstable tree")
	}
}

// idleDaemonAllocs is what New, 100 Registers and 100 Unregisters cost with
// the unstable tree in a Go map (the daemon, its two maps, the regions and
// the regions slice's growth): the most an idle daemon may allocate.
const idleDaemonAllocs = 110

// TestIdleDaemonAllocatesNoTable: a daemon whose spaces come and go without
// a scan (megastorm's 1,024 hosts never start ksmd; cloudload's fleets
// churn guests) allocates no unstable-tree slots and no region ids, and no
// more objects than the map-based daemon did.
func TestIdleDaemonAllocatesNoTable(t *testing.T) {
	spaces := make([]*mem.Space, 100)
	for i := range spaces {
		spaces[i] = mem.NewSpace("g", mem.PageSize)
	}
	var d *Daemon
	allocs := testing.AllocsPerRun(20, func() {
		d = New(nil, DefaultCostModel())
		for _, s := range spaces {
			d.Register(s)
		}
		for _, s := range spaces {
			d.Unregister(s)
		}
	})
	if d.cand.slots != nil || d.byID != nil || d.freeIDs != nil {
		t.Fatalf("idle daemon allocated %d slots, %d ids, %d free ids", len(d.cand.slots), len(d.byID), len(d.freeIDs))
	}
	if allocs > idleDaemonAllocs {
		t.Fatalf("New + 100 Register + 100 Unregister = %v allocations, want at most %d", allocs, idleDaemonAllocs)
	}
}

// bootedGuest returns a 1 GiB space filled as a guest boot fills it, a
// quarter of its pages zero: about 196k unique pages, each of which a first
// scan lap makes an unstable-tree candidate.
func bootedGuest() *mem.Space {
	s := mem.NewSpace("guest", (1<<18)*mem.PageSize)
	s.FillRandom(sim.NewRand(1), 0.25)
	return s
}

// BenchmarkScanNFirstLap times a fresh daemon's first full pass over a
// booted 1 GiB guest: every visit is a first visit, and the unstable tree
// grows from empty to one entry per unique page.
func BenchmarkScanNFirstLap(b *testing.B) {
	s := bootedGuest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.FillRandom(sim.NewRand(1), 0.25) // undo the last lap's merges
		b.StartTimer()
		d := New(nil, DefaultCostModel())
		d.Register(s)
		d.FullPass()
	}
}

// BenchmarkUnregisterProbe times the detector's release of its probe: a
// 100-page space whose pages are all candidates leaves the scan set beside
// a settled booted 1 GiB guest holding about 196k candidates.
func BenchmarkUnregisterProbe(b *testing.B) {
	const probePages = 100
	d := New(nil, DefaultCostModel())
	d.Register(bootedGuest())
	d.FullPass()
	d.FullPass()
	probe := mem.NewSpace("probe", probePages*mem.PageSize)
	for p := 0; p < probePages; p++ {
		if _, err := probe.Write(p, mem.Content(1<<62+p)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d.Register(probe)
		d.FullPass() // the guest is settled: only the probe is examined
		b.StartTimer()
		d.Unregister(probe)
	}
}
