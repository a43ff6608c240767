package mem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSpaceRoundsUp(t *testing.T) {
	s := NewSpace("g", PageSize*3+1)
	if s.NumPages() != 4 {
		t.Fatalf("pages = %d, want 4", s.NumPages())
	}
	if s.SizeBytes() != PageSize*4 {
		t.Fatalf("size = %d", s.SizeBytes())
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
	got := s.DrainDirty(2)
	if len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("DrainDirty(2) = %v", got)
	}
	if s.DirtyCount() != 1 {
		t.Fatalf("dirty after drain = %d", s.DirtyCount())
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
	if s.Volatile(0) {
		t.Fatal("fresh page volatile")
	}
	if err := s.MarkVolatile(0, true); err != nil {
		t.Fatal(err)
	}
	if !s.Volatile(0) {
		t.Fatal("MarkVolatile didn't stick")
	}
	if s.Volatile(99) {
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
		{"dirty log", func() { s.DrainDirty(0); s.MarkAllDirty(); s.ClearDirty() }, false},
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
