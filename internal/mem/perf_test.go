package mem

import (
	"math/rand"
	"runtime"
	"testing"

	"cloudskulk/internal/sim"
)

// refHash recomputes a space's content hash from its snapshot; ContentHash
// must always agree with it.
func refHash(s *Space) uint64 {
	h := uint64(0)
	for i, c := range s.Snapshot() {
		h ^= pageSig(i, c)
	}
	return h
}

// TestSetAllTailWord: the word-fill SetAll must not set ghost bits past
// the last index — exactly n bits are set afterwards.
func TestSetAllTailWord(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		b := NewBitmap(n)
		b.SetAll()
		if b.Count() != n {
			t.Fatalf("n=%d: Count = %d after SetAll", n, b.Count())
		}
		got := setBits(b)
		if len(got) != n {
			t.Fatalf("n=%d: %d bits set", n, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("n=%d: bit[%d] = %d", n, i, v)
			}
		}
	}
}

// TestContentHashTracksMutations: after any interleaving of writes, file
// loads, resets, fills, and shared attach/detach, ContentHash equals a
// recompute from the space's snapshot.
func TestContentHashTracksMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSpace("g", 64*PageSize)
	check := func(stage string) {
		t.Helper()
		if s.ContentHash() != refHash(s) {
			t.Fatalf("%s: ContentHash %#x != recomputed %#x", stage, s.ContentHash(), refHash(s))
		}
	}
	check("fresh (must be 0)")
	if s.ContentHash() != 0 {
		t.Fatalf("fresh space hash = %#x, want 0", s.ContentHash())
	}

	s.FillRandom(rng, 0.3)
	check("fill-random")

	for i := 0; i < 40; i++ {
		if _, err := s.Write(rng.Intn(64), Content(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	check("writes")

	f := GenerateFile(rng, "file-a", 10)
	if err := s.LoadFile(f, 20); err != nil {
		t.Fatal(err)
	}
	check("load-file")

	// KSM-style merge then COW break: attach leaves content (and hash)
	// alone, the break rewrites through Write.
	c := s.MustRead(5)
	g := &SharedGroup{Content: c}
	if err := s.AttachShared(5, g); err != nil {
		t.Fatal(err)
	}
	check("attach-shared")
	if _, err := s.Write(5, Content(rng.Uint64())); err != nil {
		t.Fatal(err)
	}
	check("cow-break")

	if err := s.LoadFile(f.Mutated(), 18); err != nil {
		t.Fatal(err)
	}
	check("load-file-v2")

	s.Reset()
	check("reset")
	if s.ContentHash() != 0 {
		t.Fatalf("reset space hash = %#x, want 0", s.ContentHash())
	}
}

// TestEqualContentsHashAgreement: EqualContents decides exactly by logical
// contents, and ContentHash agrees with it.
func TestEqualContentsHashAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewSpace("a", 32*PageSize)
	b := NewSpace("b", 32*PageSize)
	for i := 0; i < 32; i++ {
		c := Content(rng.Uint64() | 1)
		if _, err := a.Write(i, c); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Write(i, c); err != nil {
			t.Fatal(err)
		}
	}
	if !EqualContents(a, b) {
		t.Fatal("identically-written spaces not equal")
	}
	if a.ContentHash() != b.ContentHash() {
		t.Fatal("identically-written spaces hash differently")
	}
	old := b.MustRead(9)
	if _, err := b.Write(9, MutateContent(old)); err != nil {
		t.Fatal(err)
	}
	if EqualContents(a, b) {
		t.Fatal("spaces equal after divergent write")
	}
	if _, err := b.Write(9, old); err != nil {
		t.Fatal(err)
	}
	if !EqualContents(a, b) || a.ContentHash() != b.ContentHash() {
		t.Fatal("write-back did not restore equality (hash not reversible?)")
	}
}

// TestPageInfoMatchesAccessors: the batched lookup agrees with the
// single-field accessors on every page, shared or not.
func TestPageInfoMatchesAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSpace("g", 16*PageSize)
	s.FillRandom(rng, 0.25)
	g := &SharedGroup{Content: s.MustRead(4)}
	if err := s.AttachShared(4, g); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkVolatile(7, true); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 16; p++ {
		c, shared, vol := s.PageInfo(p)
		if c != s.MustRead(p) {
			t.Fatalf("page %d: PageInfo content %#x != Read %#x", p, c, s.MustRead(p))
		}
		_, wantShared := s.Shared(p)
		if shared != wantShared || vol != s.volatile.Test(p) {
			t.Fatalf("page %d: PageInfo flags (%v,%v), want (%v,%v)",
				p, shared, vol, wantShared, s.volatile.Test(p))
		}
	}
	if c, shared, vol := s.PageInfo(99); c != ZeroPage || shared || vol {
		t.Fatalf("out-of-range PageInfo = (%#x,%v,%v), want zero page", c, shared, vol)
	}
}

// TestSpaceWriteZeroAlloc pins that the write fast path stays
// allocation-free.
func TestSpaceWriteZeroAlloc(t *testing.T) {
	s := NewSpace("g", 64*PageSize)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.Write(i%64, Content(i)|1); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Space.Write allocates %v objects/op, want 0", allocs)
	}
}

// TestPullDirtyZeroAlloc: a pre-copy round's shape — the guest writes a
// run, the receiver pulls the dirty log with an XBZRLE sent bitmap —
// allocates nothing once both dirty logs exist.
func TestPullDirtyZeroAlloc(t *testing.T) {
	src := NewSpace("src", 256*PageSize)
	dst := NewSpace("dst", 256*PageSize)
	sent := NewBitmap(src.NumPages())
	run := make([]Content, 32)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		for p := range run {
			run[p] = Content(i+p) | 1
		}
		if err := src.WriteRun((i*7)%(256-len(run)), run); err != nil {
			t.Fatal(err)
		}
		i++
		n, err := dst.PullDirty(src, sent)
		if err != nil || n.Pages != len(run) {
			t.Fatalf("pulled %+v, %v; want %d pages", n, err, len(run))
		}
	})
	if allocs != 0 {
		t.Fatalf("write-and-pull round allocates %v objects/op, want 0", allocs)
	}
}

// TestNewSpaceBytesPerPage pins the page layout: a fresh space costs one
// 8-byte content word per page plus a fixed-size header, with no per-page
// KSM or volatility state until something needs it.
func TestNewSpaceBytesPerPage(t *testing.T) {
	const size = 1 << 30
	const pages = size / PageSize
	const slack = 1024 // the Space header and the empty dirty Bitmap
	var before, after runtime.MemStats
	best := uint64(1<<64 - 1)
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&before)
		s := NewSpace("g", size)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > 8*pages+slack {
		t.Fatalf("NewSpace(1 GiB) allocated %d bytes = %.2f per page, want at most 8 per page + %d",
			best, float64(best)/pages, slack)
	}
}

// benchSpace is a 1 GiB guest, the paper's Fig. 4 migration size.
const benchSpace = 1 << 30

var benchSink *Space

func BenchmarkNewSpace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = NewSpace("g", benchSpace)
	}
}

// BenchmarkFillRandom is a 1 GiB guest's boot fill on the engine's
// generator, the bulk path every boot takes.
func BenchmarkFillRandom(b *testing.B) {
	s := NewSpace("g", benchSpace)
	rng := sim.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FillRandom(rng, 0.3)
	}
}

// BenchmarkSpaceWriteWorkingSet is the Fig. 4 kernel-compile dirtier's
// inner loop: a cursor cycling sequentially through the low half of a
// 1 GiB guest, one write per op.
func BenchmarkSpaceWriteWorkingSet(b *testing.B) {
	s := NewSpace("g", benchSpace)
	ws := s.NumPages() / 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Write(i%ws, Content(i)|1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFirstWriteCOW is the copy-on-write materialization cost: each op
// is the first write into one chunk of a fork of a 1 GiB golden image, so
// it privatizes that chunk. A fresh fork is spawned once every chunk of the
// previous one has been written.
func BenchmarkFirstWriteCOW(b *testing.B) {
	src := NewSpace("golden", benchSpace)
	src.FillRandom(rand.New(rand.NewSource(1)), 0.25)
	tmpl := Freeze("golden.img", src)
	chunks := (tmpl.NumPages() + chunkMask) >> chunkShift
	var s *Space
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ci := i % chunks
		if ci == 0 {
			s = SpawnFrom("guest", tmpl)
		}
		if _, err := s.Write(ci<<chunkShift, Content(i)|1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPullDirty pulls a 1 GiB guest's dirty log into a second 1 GiB
// space: "all" is pre-copy's first round (every page dirty), "sparse" a
// later round with one page in 64 dirty.
func BenchmarkPullDirty(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stride int
	}{{"all", 1}, {"sparse", 64}} {
		b.Run(bc.name, func(b *testing.B) {
			src := NewSpace("src", benchSpace)
			src.FillRandom(rand.New(rand.NewSource(1)), 0.3)
			dst := NewSpace("dst", benchSpace)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.stride == 1 {
					src.MarkAllDirty()
				} else {
					for p := i % bc.stride; p < src.NumPages(); p += bc.stride {
						src.dirty.Set(p)
					}
				}
				if _, err := dst.PullDirty(src, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeltaFrom is a cross-shard migration's delta: a fork of a
// 128 MB golden image that wrote 16 pages in each of two chunks, diffed
// against a handle over the image ("chunks", the chunk walk) and against
// a separately frozen copy of it ("pages", the page-by-page compare).
func BenchmarkDeltaFrom(b *testing.B) {
	src := NewSpace("golden", 128<<20)
	src.FillRandom(sim.NewRand(1), 0.25)
	tmpl := Freeze("golden", src)
	fork := SpawnFrom("guest", tmpl)
	for _, base := range []int{0, fork.NumPages() / 2} {
		for p := base; p < base+16; p++ {
			if _, err := fork.Write(p, Content(p)<<32|1); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, bc := range []struct {
		name    string
		against *Template
	}{{"chunks", tmpl.Handle("cell")}, {"pages", Freeze("copy", src)}} {
		b.Run(bc.name, func(b *testing.B) {
			var pages []int
			var data []Content
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				pages, data, err = fork.DeltaFrom(bc.against, pages[:0], data[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
			if len(pages) != 32 || len(data) != 32 {
				b.Fatalf("delta has %d pages, want 32", len(pages))
			}
		})
	}
}
