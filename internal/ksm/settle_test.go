package ksm

import (
	"math/rand"
	"testing"

	"cloudskulk/internal/mem"
	"cloudskulk/internal/telemetry"
)

func mustCheck(t *testing.T, d *Daemon) {
	t.Helper()
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func settled(d *Daemon, s *mem.Space) bool {
	r := d.regionOf(s)
	return r != nil && r.settled(d.stableGen)
}

// TestStaleSelfCandidateMerges pins the stale self-candidate fix. a[0] is
// the candidate for c, moves to d, b[0] (now c) takes over the entry, and
// a[0] goes back to c. Had a[0] kept its mark, both pages would skip as
// "their own candidate" on every later visit and never merge.
func TestStaleSelfCandidateMerges(t *testing.T) {
	const c, other, x = 0x33, 0x55, 0x44
	_, d := newDaemon(t)
	a := mem.NewSpace("a", mem.PageSize)
	b := mem.NewSpace("b", mem.PageSize)
	mustWrite(t, a, 0, c)
	mustWrite(t, b, 0, x)
	d.Register(b) // b is visited before a
	d.Register(a)
	d.FullPass() // b[0] candidate for x, a[0] candidate for c

	mustWrite(t, a, 0, other)
	mustWrite(t, b, 0, c)
	d.ScanN(1) // b[0]: a[0] no longer holds c, so b[0] takes the entry
	mustWrite(t, a, 0, c)
	mustCheck(t, d)

	d.FullPass()
	d.FullPass()
	ga, aShared := a.Shared(0)
	gb, bShared := b.Shared(0)
	if !aShared || !bShared || ga != gb {
		t.Fatalf("identical pages left unmerged: a shared=%v b shared=%v", aShared, bShared)
	}
	mustCheck(t, d)
}

// TestFillRandomReleasesMergedRefs: FillRandom over merged pages drops
// their refs the way Reset does, so the group dies and leaves the count of
// live groups.
func TestFillRandomReleasesMergedRefs(t *testing.T) {
	_, d := newDaemon(t)
	s := mem.NewSpace("g", 2*mem.PageSize)
	mustWrite(t, s, 0, 0x77)
	mustWrite(t, s, 1, 0x77)
	d.Register(s)
	d.FullPass()
	g, shared := s.Shared(1)
	if !shared || g.Refs != 2 || liveGroups(d) != 1 {
		t.Fatalf("setup: shared=%v groups=%d", shared, liveGroups(d))
	}
	s.FillRandom(rand.New(rand.NewSource(1)), 0)
	if g.Refs != 0 {
		t.Fatalf("group refs after FillRandom = %d, want 0", g.Refs)
	}
	if n := liveGroups(d); n != 0 {
		t.Fatalf("live groups after FillRandom = %d, want 0", n)
	}
	mustCheck(t, d)
}

// TestSettledRegionSkipsExactly: a region settles after one lap of no-op
// visits; a settled wake moves the cursor and the counters as a scan would;
// a write unsettles it and is merged on the same schedule as before.
func TestSettledRegionSkipsExactly(t *testing.T) {
	_, d := newDaemon(t)
	reg := telemetry.NewRegistry()
	d.SetTelemetry(reg)
	a := mem.NewSpace("a", 8*mem.PageSize)
	b := mem.NewSpace("b", 8*mem.PageSize)
	for p := 0; p < 8; p++ {
		mustWrite(t, a, p, mem.Content(0x100+p))
		mustWrite(t, b, p, mem.Content(0x200+p))
	}
	d.Register(a)
	d.Register(b)
	d.FullPass() // first visits: every page becomes its own candidate
	if settled(d, a) || settled(d, b) {
		t.Fatal("settled after a lap of first visits")
	}
	d.FullPass()
	if !settled(d, a) || !settled(d, b) {
		t.Fatal("not settled after a lap of no-op visits")
	}
	mustCheck(t, d)

	before := d.pagesScan
	d.ScanN(5) // a[0..4], skipped
	if got := d.pagesScan - before; got != 5 {
		t.Fatalf("skipped wake counted %d pages, want 5", got)
	}
	if got := reg.Counter("ksm_pages_scanned_total").Value(); got != d.pagesScan {
		t.Fatalf("ksm_pages_scanned_total = %d, ledger = %d", got, d.pagesScan)
	}

	// b[3] takes a[6]'s content: b must be examined again, and b[3] merges
	// with a[6] when the scan reaches it.
	mustWrite(t, b, 3, 0x106)
	if settled(d, b) || !settled(d, a) {
		t.Fatal("write to b did not unsettle b alone")
	}
	if merged := d.ScanN(3 + 4); merged != 1 {
		t.Fatalf("merged %d on the wake reaching b[3], want 1", merged)
	}
	if _, shared := a.Shared(6); !shared {
		t.Fatal("a[6] not merged with b[3]")
	}
	mustCheck(t, d)
}

// TestReplacedCandidateUnsettlesItsRegion: losing a candidate mark to a
// visit in another region is the one change to a region's scan state made
// outside its own visits, so it must unsettle the region.
func TestReplacedCandidateUnsettlesItsRegion(t *testing.T) {
	const c, e, z = 0x11, 0x22, 0x33
	_, d := newDaemon(t)
	x := mem.NewSpace("x", mem.PageSize)
	y := mem.NewSpace("y", mem.PageSize)
	mustWrite(t, x, 0, c)
	mustWrite(t, y, 0, z)
	d.Register(x)
	d.Register(y)
	d.FullPass() // x[0] candidate for c
	mustWrite(t, x, 0, e)
	d.FullPass() // x[0] candidate for e; the entry for c still names it
	d.FullPass() // clears x[0]'s changed flag
	d.FullPass()
	if !settled(d, x) {
		t.Fatal("x not settled")
	}
	mustWrite(t, y, 0, c)
	d.FullPass() // y[0] replaces x[0] as the entry for c
	if settled(d, x) {
		t.Fatal("x still settled after losing its candidate mark")
	}
	mustCheck(t, d)
}

// TestCheckInvariantsCatchesCorruption: each checked invariant, broken by
// hand, is reported.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	build := func() (*Daemon, *mem.Space) {
		_, d := newDaemon(t)
		s := mem.NewSpace("g", 4*mem.PageSize)
		for p := 0; p < 4; p++ {
			mustWrite(t, s, p, mem.Content(0x10+p%2))
		}
		d.Register(s)
		d.FullPass()
		d.FullPass()
		mustCheck(t, d)
		return d, s
	}

	d, s := build()
	r := d.regionOf(s)
	r.scan.flags[2] |= flagSelfCand // page 2 is merged; it is nobody's candidate
	if d.CheckInvariants() == nil {
		t.Error("stray candidate mark not reported")
	}

	d, s = build()
	if _, err := s.Write(0, 0x99); err != nil { // unshares page 0
		t.Fatal(err)
	}
	r = d.regionOf(s)
	r.settledSpace = s.Generation() // claim the write never happened
	if d.CheckInvariants() == nil {
		t.Error("settled region with a page to examine not reported")
	}

	d, s = build()
	g, _ := s.Shared(0)
	g.Refs--
	if d.CheckInvariants() == nil {
		t.Error("group with fewer refs than attached pages not reported")
	}

	d, s = build()
	d.regionOf(s).scan.cands++
	if d.CheckInvariants() == nil {
		t.Error("region count off by one not reported")
	}

	d, s = build()
	mustWrite(t, s, 0, 0x99)
	d.FullPass() // page 0 becomes the candidate for 0x99
	i, ok := d.cand.find(0x99)
	if !ok {
		t.Fatal("setup: no candidate for 0x99")
	}
	d.cand.slots[i].rid = 7
	if d.CheckInvariants() == nil {
		t.Error("entry naming an unknown region not reported")
	}

	d, s = build()
	d.byID = append(d.byID, d.regionOf(s))
	if d.CheckInvariants() == nil {
		t.Error("region id table naming a region twice not reported")
	}

	d, s = build()
	d.Unregister(s)
	d.freeIDs = append(d.freeIDs, d.freeIDs[0])
	if d.CheckInvariants() == nil {
		t.Error("id listed free twice not reported")
	}
}
