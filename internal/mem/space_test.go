package mem

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewSpaceRoundsUp(t *testing.T) {
	s := NewSpace("g", PageSize*3+1)
	if s.NumPages() != 4 {
		t.Fatalf("pages = %d, want 4", s.NumPages())
	}
	if s.Name() != "g" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := NewSpace("g", PageSize*8)
	res, err := s.Write(3, 0xdead)
	if err != nil {
		t.Fatal(err)
	}
	if res.CowBroken || !res.Changed {
		t.Fatalf("write result = %+v", res)
	}
	c, err := s.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0xdead {
		t.Fatalf("read back %#x", c)
	}
	// Rewriting the same value is not a change.
	res, _ = s.Write(3, 0xdead)
	if res.Changed {
		t.Fatal("identical rewrite reported Changed")
	}
}

func TestOutOfRangeErrors(t *testing.T) {
	s := NewSpace("g", PageSize*2)
	if _, err := s.Read(2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Read err = %v", err)
	}
	if _, err := s.Read(-1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Read(-1) err = %v", err)
	}
	if _, err := s.Write(2, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Write err = %v", err)
	}
	if err := s.MarkVolatile(5, true); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("MarkVolatile err = %v", err)
	}
}

func TestMustReadPanicsOutOfRange(t *testing.T) {
	s := NewSpace("g", PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("MustRead out of range did not panic")
		}
	}()
	s.MustRead(1)
}

func TestDirtyTracking(t *testing.T) {
	s := NewSpace("g", PageSize*10)
	if s.DirtyCount() != 0 {
		t.Fatal("fresh space dirty")
	}
	for _, p := range []int{1, 5, 9} {
		if _, err := s.Write(p, Content(p)); err != nil {
			t.Fatal(err)
		}
	}
	if s.DirtyCount() != 3 {
		t.Fatalf("dirty = %d, want 3", s.DirtyCount())
	}
	if got := dirtyPages(s); !slices.Equal(got, []int{1, 5, 9}) {
		t.Fatalf("dirty pages = %v, want [1 5 9]", got)
	}
	s.ClearDirty()
	if s.DirtyCount() != 0 {
		t.Fatal("ClearDirty left dirt")
	}
	s.MarkAllDirty()
	if s.DirtyCount() != 10 {
		t.Fatalf("MarkAllDirty = %d", s.DirtyCount())
	}
}

func TestSharedGroupAttachAndCOW(t *testing.T) {
	s1 := NewSpace("a", PageSize*2)
	s2 := NewSpace("b", PageSize*2)
	if _, err := s1.Write(0, 0xabc); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Write(0, 0xabc); err != nil {
		t.Fatal(err)
	}
	g := &SharedGroup{Content: 0xabc}
	if err := s1.AttachShared(0, g); err != nil {
		t.Fatal(err)
	}
	if err := s2.AttachShared(0, g); err != nil {
		t.Fatal(err)
	}
	if g.Refs != 2 {
		t.Fatalf("refs = %d, want 2", g.Refs)
	}
	if _, ok := s1.Shared(0); !ok {
		t.Fatal("s1 page 0 not shared")
	}
	// Reads resolve through the group.
	if c, _ := s1.Read(0); c != 0xabc {
		t.Fatalf("shared read = %#x", c)
	}
	// Writing breaks COW and decrements refs.
	res, err := s1.Write(0, 0xdef)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CowBroken || !res.Changed {
		t.Fatalf("cow write result = %+v", res)
	}
	if g.Refs != 1 {
		t.Fatalf("refs after break = %d, want 1", g.Refs)
	}
	if c, _ := s1.Read(0); c != 0xdef {
		t.Fatalf("post-break read = %#x", c)
	}
	if c, _ := s2.Read(0); c != 0xabc {
		t.Fatalf("other member changed: %#x", c)
	}
	_, cows := s1.Stats()
	if cows != 1 {
		t.Fatalf("cowBreaks = %d", cows)
	}
}

func TestCOWBreakOnIdenticalWrite(t *testing.T) {
	// Writing the same value to a merged page still breaks sharing —
	// the fault happens before the value is compared. This is exactly
	// the effect the detector measures.
	s := NewSpace("a", PageSize)
	if _, err := s.Write(0, 7); err != nil {
		t.Fatal(err)
	}
	g := &SharedGroup{Content: 7}
	if err := s.AttachShared(0, g); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Write(0, 7)
	if !res.CowBroken {
		t.Fatal("identical write to merged page did not break COW")
	}
	if res.Changed {
		t.Fatal("identical write reported Changed")
	}
}

func TestAttachSharedContentMismatch(t *testing.T) {
	s := NewSpace("a", PageSize)
	if _, err := s.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	g := &SharedGroup{Content: 2}
	if err := s.AttachShared(0, g); err == nil {
		t.Fatal("attach with mismatched content succeeded")
	}
	if g.Refs != 0 {
		t.Fatalf("failed attach changed refs to %d", g.Refs)
	}
}

func TestAttachSharedIdempotent(t *testing.T) {
	s := NewSpace("a", PageSize)
	g := &SharedGroup{Content: ZeroPage}
	if err := s.AttachShared(0, g); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShared(0, g); err != nil {
		t.Fatal(err)
	}
	if g.Refs != 1 {
		t.Fatalf("re-attach inflated refs to %d", g.Refs)
	}
}

func TestAttachSharedMigratesBetweenGroups(t *testing.T) {
	s := NewSpace("a", PageSize)
	g1 := &SharedGroup{Content: ZeroPage}
	g2 := &SharedGroup{Content: ZeroPage}
	if err := s.AttachShared(0, g1); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShared(0, g2); err != nil {
		t.Fatal(err)
	}
	if g1.Refs != 0 || g2.Refs != 1 {
		t.Fatalf("refs g1=%d g2=%d, want 0/1", g1.Refs, g2.Refs)
	}
}

func TestVolatileFlag(t *testing.T) {
	s := NewSpace("a", PageSize*2)
	if isVolatile(s, 0) {
		t.Fatal("fresh page volatile")
	}
	if err := s.MarkVolatile(0, true); err != nil {
		t.Fatal(err)
	}
	if !isVolatile(s, 0) {
		t.Fatal("MarkVolatile didn't stick")
	}
	if isVolatile(s, 99) {
		t.Fatal("out-of-range Volatile = true")
	}
}

func TestFillRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSpace("g", PageSize*1000)
	s.FillRandom(rng, 0.3)
	if s.DirtyCount() != 0 {
		t.Fatal("FillRandom left dirty log set")
	}
	zeros := 0
	for i := 0; i < s.NumPages(); i++ {
		if s.MustRead(i) == ZeroPage {
			zeros++
		}
	}
	if zeros < 200 || zeros > 400 {
		t.Fatalf("zero pages = %d, want ~300", zeros)
	}
}

func TestSnapshotAndEqualContents(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewSpace("a", PageSize*64)
	a.FillRandom(rng, 0.2)
	b := NewSpace("b", PageSize*64)
	snap := a.Snapshot()
	for i, c := range snap {
		if _, err := b.Write(i, c); err != nil {
			t.Fatal(err)
		}
	}
	if !EqualContents(a, b) {
		t.Fatal("copied spaces not equal")
	}
	if _, err := b.Write(5, 0xffff); err != nil {
		t.Fatal(err)
	}
	if EqualContents(a, b) {
		t.Fatal("diverged spaces reported equal")
	}
	c := NewSpace("c", PageSize*32)
	if EqualContents(a, c) {
		t.Fatal("different-size spaces reported equal")
	}
}

// Property: a write/read round trip always returns the written content, and
// never disturbs neighbouring pages.
func TestWriteReadProperty(t *testing.T) {
	f := func(p uint8, c Content, neighbor uint8) bool {
		s := NewSpace("g", PageSize*256)
		np := int(neighbor)
		if np == int(p) {
			np = (np + 1) % 256
		}
		before := s.MustRead(np)
		if _, err := s.Write(int(p), c); err != nil {
			return false
		}
		return s.MustRead(int(p)) == c && s.MustRead(np) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerationTracksEveryPageChange: every path that can change a page's
// content, sharing or volatility moves the generation; reads and no-op
// calls do not.
func TestGenerationTracksEveryPageChange(t *testing.T) {
	s := NewSpace("g", PageSize*4)
	peer := NewSpace("peer", PageSize*4)
	g := &SharedGroup{Content: ZeroPage}
	steps := []struct {
		name  string
		op    func()
		moves bool
	}{
		{"Write", func() { s.Write(1, 0x5) }, true},
		{"LoadFile", func() { s.LoadFile(&File{Pages: []Content{0x6}}, 2) }, true},
		{"MarkVolatile", func() { s.MarkVolatile(0, true) }, true},
		{"MarkVolatile no-op", func() { s.MarkVolatile(0, true) }, false},
		{"AttachShared", func() { s.AttachShared(3, g) }, true},
		{"AttachShared again", func() { s.AttachShared(3, g) }, false},
		{"reads", func() { s.Read(3); s.PageInfo(1); s.Snapshot(); s.Shared(3) }, false},
		{"dirty log", func() { peer.PullDirty(s, nil); s.MarkAllDirty(); s.ClearDirty() }, false},
		{"WriteRun", func() { s.WriteRun(0, []Content{0x7, 0x8}) }, true},
		{"PullDirty", func() { peer.MarkAllDirty(); s.PullDirty(peer, nil) }, true},
		{"PullDirty of a clean log", func() { s.PullDirty(peer, nil) }, false},
		{"FillRandom", func() { s.FillRandom(rand.New(rand.NewSource(1)), 0.5) }, true},
		{"Reset", func() { s.Reset() }, true},
	}
	for _, st := range steps {
		before := s.Generation()
		st.op()
		if moved := s.Generation() != before; moved != st.moves {
			t.Errorf("%s: generation moved = %v, want %v", st.name, moved, st.moves)
		}
	}
}

// TestFillRandomReleasesSharedRefs: FillRandom detaches merged pages with
// the same refcount accounting as Reset.
func TestFillRandomReleasesSharedRefs(t *testing.T) {
	s := NewSpace("g", PageSize*2)
	g := &SharedGroup{Content: ZeroPage}
	for p := 0; p < 2; p++ {
		if err := s.AttachShared(p, g); err != nil {
			t.Fatal(err)
		}
	}
	s.FillRandom(rand.New(rand.NewSource(1)), 0.5)
	if g.Refs != 0 {
		t.Fatalf("refs after FillRandom = %d, want 0", g.Refs)
	}
	for p := 0; p < 2; p++ {
		if _, shared := s.Shared(p); shared {
			t.Fatalf("page %d still shared", p)
		}
	}
}

// pullPair builds a source and a receiver of n pages in one of the layouts
// PullDirty and WriteRun route differently: "plain", a receiver with a
// KSM-merged page, a forked receiver, and a receiver with a write hook
// that logs each call with the state it sees. The source is flat, or a
// fork of a flat image if forkSrc is set, and exactly its pages dirty are
// in its dirty log.
func pullPair(t *testing.T, route string, n int, log *[]string, forkSrc bool, dirty []int) (src, dst *Space) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	src = NewSpace("src", int64(n)*PageSize)
	src.FillRandom(rng, 0.4)
	if forkSrc {
		src = SpawnFrom("src", Freeze("src-img", src))
	}
	dst = NewSpace("dst", int64(n)*PageSize)
	switch route {
	case "ksm":
		if err := dst.AttachShared(3, &SharedGroup{Content: ZeroPage}); err != nil {
			t.Fatal(err)
		}
	case "fork":
		dst.FillRandom(rng, 0.5)
		dst = SpawnFrom("dst", Freeze("img", dst))
	case "hook":
		dst.SetWriteHook(func(p int, c Content) {
			*log = append(*log, fmt.Sprintf("%d=%#x read %#x dirty %d writes %d", p, c, dst.MustRead(p), dst.DirtyCount(), dst.writes))
		})
	}
	for _, p := range dirty {
		if _, err := src.Write(p, src.MustRead(p)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dst.Write(2, 0x99); err != nil {
		t.Fatal(err)
	}
	return src, dst
}

// pageRange lists pages [lo, hi).
func pageRange(lo, hi int) []int {
	var ps []int
	for p := lo; p < hi; p++ {
		ps = append(ps, p)
	}
	return ps
}

// sentBitmap returns an XBZRLE sent bitmap of n pages: none (nil), or one
// with no page, every page or every even page set.
func sentBitmap(fill string, n int) *Bitmap {
	if fill == "nil" {
		return nil
	}
	b := NewBitmap(n)
	for p := 0; p < n; p++ {
		if fill == "full" || fill == "half" && p%2 == 0 {
			b.Set(p)
		}
	}
	return b
}

// TestPullDirty: on every route, PullDirty leaves source and receiver
// exactly as draining the source's log and then writing each page it named
// with Write, in ascending order, does — contents, dirty logs, write and
// COW-break counters, generation and the write hook's calls — and counts
// pages, zero pages and re-sent pages. The dirty patterns are scattered
// bits, a fully set word between flat spaces (on a plain receiver, the
// whole-word copy), the same word from a forked source (no flat array, so
// the per-bit loop) and the partial last word; each runs with no sent
// bitmap and with one empty, full and half set.
func TestPullDirty(t *testing.T) {
	const n = 200
	for _, pat := range []struct {
		name    string
		forkSrc bool
		dirty   []int
	}{
		{"scattered", false, []int{0, 1, 3, 63, 64, 65, 130, n - 1}},
		{"whole word", false, pageRange(64, 128)},
		{"whole word from a fork", true, pageRange(64, 128)},
		{"partial last word", false, pageRange(192, n)},
	} {
		for _, fill := range []string{"nil", "empty", "full", "half"} {
			for _, route := range []string{"plain", "ksm", "fork", "hook"} {
				name := pat.name + ", " + fill + " sent, " + route
				var gotLog, wantLog []string
				src, dst := pullPair(t, route, n, &gotLog, pat.forkSrc, pat.dirty)
				wsrc, wdst := pullPair(t, route, n, &wantLog, pat.forkSrc, pat.dirty)
				sent, wsent := sentBitmap(fill, n), sentBitmap(fill, n)

				got, err := dst.PullDirty(src, sent)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var want Pulled
				pages := dirtyPages(wsrc)
				wsrc.ClearDirty()
				for _, p := range pages {
					c := wsrc.MustRead(p)
					want.Pages++
					switch {
					case c == ZeroPage:
						want.Zeros++
					case wsent != nil && wsent.Test(p):
						want.Resent++
					}
					if _, err := wdst.Write(p, c); err != nil {
						t.Fatal(err)
					}
					if wsent != nil {
						wsent.Set(p)
					}
				}

				resends := fill == "full" || fill == "half"
				if got != want || want.Pages != len(pat.dirty) || want.Zeros == 0 || resends != (want.Resent > 0) {
					t.Errorf("%s: pulled %+v, want %+v with %d pages, some zero, re-sent %t", name, got, want, len(pat.dirty), resends)
				}
				if src.DirtyCount() != 0 || dirtyPages(src) != nil {
					t.Errorf("%s: source log not cleared: %v", name, dirtyPages(src))
				}
				if !slices.Equal(dirtyPages(dst), dirtyPages(wdst)) {
					t.Errorf("%s: dirty %v, want %v", name, dirtyPages(dst), dirtyPages(wdst))
				}
				if sent != nil && !slices.Equal(setBits(sent), setBits(wsent)) {
					t.Errorf("%s: sent %v, want %v", name, setBits(sent), setBits(wsent))
				}
				if !EqualContents(dst, wdst) || dst.writes != wdst.writes || dst.cowBreaks != wdst.cowBreaks ||
					dst.Generation() != wdst.Generation() || dst.ForkStats() != wdst.ForkStats() {
					t.Errorf("%s: receiver differs from the write loop's", name)
				}
				if !slices.Equal(gotLog, wantLog) {
					t.Errorf("%s: hook saw\n%v\nwant\n%v", name, gotLog, wantLog)
				}
				if err := dst.CheckInvariants(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}

	// Size mismatches are errors that leave the source's log alone.
	src := NewSpace("src", 8*PageSize)
	src.MarkAllDirty()
	if _, err := NewSpace("dst", 9*PageSize).PullDirty(src, nil); err == nil {
		t.Error("pull across sizes succeeded")
	}
	if _, err := NewSpace("dst", 8*PageSize).PullDirty(src, NewBitmap(9)); err == nil {
		t.Error("pull with a mis-sized sent bitmap succeeded")
	}
	if src.DirtyCount() != 8 {
		t.Errorf("failed pulls left %d dirty pages, want 8", src.DirtyCount())
	}
}

// TestWriteRun: on every route, WriteRun has exactly the effects of Write
// on each page in ascending order, across word boundaries, and a run that
// does not fit writes nothing.
func TestWriteRun(t *testing.T) {
	const n = 200
	run := []Content{0, 7, 7, 9}
	for i := 0; i < 70; i++ {
		run = append(run, Content(i)|1)
	}
	for _, route := range []string{"plain", "ksm", "fork", "hook"} {
		var gotLog, wantLog []string
		_, s := pullPair(t, route, n, &gotLog, false, nil)
		_, w := pullPair(t, route, n, &wantLog, false, nil)
		if err := s.WriteRun(1, run); err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		for i, c := range run {
			if _, err := w.Write(1+i, c); err != nil {
				t.Fatal(err)
			}
		}
		if !EqualContents(s, w) || !slices.Equal(dirtyPages(s), dirtyPages(w)) || s.writes != w.writes ||
			s.cowBreaks != w.cowBreaks || s.Generation() != w.Generation() || s.ForkStats() != w.ForkStats() ||
			!slices.Equal(gotLog, wantLog) {
			t.Errorf("%s: WriteRun differs from the write loop", route)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", route, err)
		}
		gen := s.Generation()
		for _, start := range []int{-1, n - len(run) + 1} {
			if err := s.WriteRun(start, run); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("%s: WriteRun(%d) = %v, want ErrOutOfRange", route, start, err)
			}
		}
		if s.Generation() != gen {
			t.Errorf("%s: a rejected run wrote", route)
		}
	}
}

// isVolatile reads page p's volatility flag through PageInfo.
func isVolatile(s *Space, p int) bool {
	_, _, v := s.PageInfo(p)
	return v
}
