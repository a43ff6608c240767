package mem

import (
	"math/rand"
	"testing"
)

// templateFixture builds a standalone space with guest-like contents —
// random pages, one KSM-shared page, one volatile page — and freezes it.
func templateFixture(t *testing.T) (*Space, *Template) {
	t.Helper()
	src := NewSpace("golden", 4*chunkSize*PageSize)
	src.FillRandom(rand.New(rand.NewSource(42)), 0.3)
	g := &SharedGroup{Content: src.MustRead(7)}
	if err := src.AttachShared(7, g); err != nil {
		t.Fatal(err)
	}
	if err := src.MarkVolatile(9, true); err != nil {
		t.Fatal(err)
	}
	return src, Freeze("golden.img", src)
}

func TestFreezeCapturesLogicalContents(t *testing.T) {
	src, tmpl := templateFixture(t)
	if tmpl.NumPages() != src.NumPages() || tmpl.SizeBytes() != int64(src.NumPages())*PageSize {
		t.Fatalf("template geometry %d/%d != source %d/%d",
			tmpl.NumPages(), tmpl.SizeBytes(), src.NumPages(), int64(src.NumPages())*PageSize)
	}
	if tmpl.ContentHash() != src.ContentHash() {
		t.Fatalf("template hash %#x != source hash %#x", tmpl.ContentHash(), src.ContentHash())
	}
	for p := 0; p < src.NumPages(); p++ {
		if got, want := tmpl.pages[p], src.MustRead(p); got != want {
			t.Fatalf("template page %d = %#x, want %#x", p, got, want)
		}
	}
	// Freezing must not disturb the source's sharing or volatility.
	if _, shared := src.Shared(7); !shared {
		t.Fatal("source page 7 lost its shared group after Freeze")
	}
	if !isVolatile(src, 9) {
		t.Fatal("source page 9 lost its volatile flag after Freeze")
	}
}

func TestSpawnFromSharesUntilFirstWrite(t *testing.T) {
	src, tmpl := templateFixture(t)
	a := SpawnFrom("guest-a", tmpl)
	b := SpawnFrom("guest-b", tmpl)
	if tmpl.Spawns() != 2 {
		t.Fatalf("template spawns = %d, want 2", tmpl.Spawns())
	}
	if !a.Forked() || a.tmpl != tmpl {
		t.Fatal("spawned space does not report its template")
	}
	if a.ContentHash() != tmpl.ContentHash() {
		t.Fatalf("spawn hash %#x != template hash %#x", a.ContentHash(), tmpl.ContentHash())
	}
	if !EqualContents(a, b) || !EqualContents(a, src) {
		t.Fatal("fresh spawns must equal each other and the frozen source")
	}
	if a.MaterializedChunks() != 0 || a.DirtyCount() != 0 {
		t.Fatalf("fresh spawn materialized %d chunks, %d dirty — want 0/0",
			a.MaterializedChunks(), a.DirtyCount())
	}
	// Sharing and volatility do not travel across the fork: the template
	// holds plain contents only.
	if _, shared := a.Shared(7); shared {
		t.Fatal("spawned space inherited a KSM shared group")
	}
	if isVolatile(a, 9) {
		t.Fatal("spawned space inherited a volatile flag")
	}
}

// TestCOWForkDivergence is the satellite's core scenario: fork a template,
// write on both sides, and check that ContentHash / EqualContents / the
// dirty bitmap / KSM-volatility state all diverge correctly while the
// template and untouched siblings stay pristine.
func TestCOWForkDivergence(t *testing.T) {
	_, tmpl := templateFixture(t)
	a := SpawnFrom("guest-a", tmpl)
	b := SpawnFrom("guest-b", tmpl)
	base := tmpl.ContentHash()

	const p = 5
	orig := tmpl.pages[p]
	if _, err := a.Write(p, orig^0x1111); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(p, orig^0x2222); err != nil {
		t.Fatal(err)
	}

	if a.ContentHash() == base || b.ContentHash() == base || a.ContentHash() == b.ContentHash() {
		t.Fatalf("hashes failed to diverge: a=%#x b=%#x base=%#x",
			a.ContentHash(), b.ContentHash(), base)
	}
	if EqualContents(a, b) {
		t.Fatal("diverged forks compare equal")
	}
	if got := tmpl.pages[p]; got != orig {
		t.Fatalf("template page changed under fork write: %#x != %#x", got, orig)
	}
	if a.MustRead(p) != orig^0x1111 || b.MustRead(p) != orig^0x2222 {
		t.Fatal("fork reads do not see their own writes")
	}
	// Only the written page is dirty, and only the enclosing chunk is
	// materialized.
	if a.DirtyCount() != 1 || a.MaterializedChunks() != 1 || a.ForkStats() != 1 {
		t.Fatalf("a: dirty=%d chunks=%d copies=%d, want 1/1/1",
			a.DirtyCount(), a.MaterializedChunks(), a.ForkStats())
	}
	if got := dirtyPages(a); len(got) != 1 || got[0] != p {
		t.Fatalf("a dirty log = %v, want [%d]", got, p)
	}
	// A neighbouring page in the same chunk reads the copied content, and a
	// page in another chunk still reads straight from the template.
	if a.MustRead(p+1) != tmpl.pages[p+1] || a.MustRead(3*chunkSize) != tmpl.pages[3*chunkSize] {
		t.Fatal("untouched pages diverged from template")
	}
	// Writing the original content back restores the exact hash across
	// the fork boundary.
	if _, err := a.Write(p, orig); err != nil {
		t.Fatal(err)
	}
	if a.ContentHash() != base {
		t.Fatalf("hash %#x after undo, want %#x", a.ContentHash(), base)
	}
	if !EqualContents(a, SpawnFrom("fresh", tmpl)) {
		t.Fatal("undone fork does not equal a fresh spawn")
	}
	// RangeHash over the whole forked space must reproduce ContentHash.
	if b.RangeHash(0, b.NumPages()) != b.ContentHash() {
		t.Fatal("RangeHash over full forked space != ContentHash")
	}
}

// TestForkKSMAndVolatility: KSM state acquired after the fork is private
// to the fork — merging, COW breaks, and volatility flags on one fork leave
// the template and its siblings untouched.
func TestForkKSMAndVolatility(t *testing.T) {
	_, tmpl := templateFixture(t)
	a := SpawnFrom("guest-a", tmpl)
	b := SpawnFrom("guest-b", tmpl)

	const p = 3
	g := &SharedGroup{Content: tmpl.pages[p]}
	if err := a.AttachShared(p, g); err != nil {
		t.Fatal(err)
	}
	if g.Refs != 1 {
		t.Fatalf("group refs = %d, want 1", g.Refs)
	}
	if _, shared := b.Shared(p); shared {
		t.Fatal("sibling fork sees a's KSM merge")
	}
	if a.ContentHash() != tmpl.ContentHash() {
		t.Fatal("attaching an equal-content group changed the hash")
	}
	res, err := a.Write(p, 0xdead)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CowBroken {
		t.Fatal("write to merged fork page did not break COW")
	}
	if g.Refs != 0 {
		t.Fatalf("group refs = %d after COW break, want 0", g.Refs)
	}
	_, cows := a.Stats()
	if cows != 1 {
		t.Fatalf("cowBreaks = %d, want 1", cows)
	}
	if err := a.MarkVolatile(p, true); err != nil {
		t.Fatal(err)
	}
	if isVolatile(b, p) {
		t.Fatal("sibling fork sees a's volatile flag")
	}
	// Marking a template-backed page with its existing (false) volatility
	// must not materialize a chunk.
	before := b.MaterializedChunks()
	if err := b.MarkVolatile(2*chunkSize, false); err != nil {
		t.Fatal(err)
	}
	if b.MaterializedChunks() != before {
		t.Fatal("no-op MarkVolatile privatized a chunk")
	}
}

func TestForkResetAndFillRandomDetach(t *testing.T) {
	_, tmpl := templateFixture(t)
	a := SpawnFrom("guest-a", tmpl)
	if _, err := a.Write(0, 0xbeef); err != nil {
		t.Fatal(err)
	}
	a.Reset()
	if a.Forked() || a.ContentHash() != 0 || a.MustRead(0) != ZeroPage {
		t.Fatal("Reset did not fully detach and zero the fork")
	}
	if got := tmpl.pages[0]; got == 0xbeef {
		t.Fatal("fork write leaked into template")
	}

	b := SpawnFrom("guest-b", tmpl)
	b.FillRandom(rand.New(rand.NewSource(7)), 0.5)
	if b.Forked() {
		t.Fatal("FillRandom left the space attached to its template")
	}
	if b.RangeHash(0, b.NumPages()) != b.ContentHash() {
		t.Fatal("detached space hash invariant broken")
	}
}

// TestFillRandomClearsVolatility: a fill models a boot repopulating RAM, so
// like Reset it drops every volatile flag, on a standalone space and on a
// fork alike.
func TestFillRandomClearsVolatility(t *testing.T) {
	_, tmpl := templateFixture(t)
	for _, s := range []*Space{NewSpace("standalone", int64(tmpl.NumPages())*PageSize), SpawnFrom("fork", tmpl)} {
		for _, p := range []int{9, chunkSize + 3} {
			if err := s.MarkVolatile(p, true); err != nil {
				t.Fatal(err)
			}
		}
		s.FillRandom(rand.New(rand.NewSource(5)), 0.3)
		for p := 0; p < s.NumPages(); p++ {
			if _, _, vol := s.PageInfo(p); vol {
				t.Fatalf("%s: page %d still volatile after FillRandom", s.Name(), p)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

// TestSpawnFromAllocCeiling is the O(1) proof: forking costs the same small
// constant number of allocations whether the template is 4 MiB or 256 MiB —
// no per-page work happens at spawn time.
func TestSpawnFromAllocCeiling(t *testing.T) {
	allocsFor := func(pages int) float64 {
		src := NewSpace("src", int64(pages)*PageSize)
		src.FillRandom(rand.New(rand.NewSource(1)), 0.2)
		tmpl := Freeze("img", src)
		i := 0
		return testing.AllocsPerRun(100, func() {
			s := SpawnFrom("g", tmpl)
			i += s.NumPages() // keep the spawn observable
		})
	}
	small := allocsFor(1024)  // 4 MiB
	large := allocsFor(65536) // 256 MiB, 64× larger
	const ceiling = 6         // space + chunk index + bitmap + slack
	if small > ceiling || large > ceiling {
		t.Fatalf("SpawnFrom allocates %v (small) / %v (large) objects, ceiling %d",
			small, large, ceiling)
	}
	if small != large {
		t.Fatalf("SpawnFrom alloc count grows with template size: %v -> %v", small, large)
	}
}
