package mem

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPageContentMatchesFmtForm pins the file page format the goldens were
// drawn with: pageContent is the FNV-1a hash of fmt's "%s/%d/%d/%d"
// rendering of name, nonce, page and a zero version, and allocates nothing.
func TestPageContentMatchesFmtForm(t *testing.T) {
	for _, name := range []string{"", "file-a.mp3", "control.bin", "a/b c\x00ü"} {
		for _, nonce := range []uint64{0, 1, 0xdeadbeef, 1 << 63, math.MaxUint64} {
			for page := 0; page < 715; page++ {
				h := fnv.New64a()
				fmt.Fprintf(h, "%s/%d/%d/%d", name, nonce, page, 0)
				want := Content(h.Sum64())
				if want == ZeroPage {
					want = 1
				}
				if got := pageContent(name, nonce, page); got != want {
					t.Fatalf("pageContent(%q, %d, %d) = %#x, fmt form %#x", name, nonce, page, got, want)
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { pageContent("file-a.mp3", math.MaxUint64, 1<<40) }); n != 0 {
		t.Fatalf("pageContent allocates %v times per page", n)
	}
}

func TestGenerateFileUniquePages(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := GenerateFile(rng, "file-a.mp3", 100)
	if f.NumPages() != 100 {
		t.Fatalf("pages = %d", f.NumPages())
	}
	if f.SizeBytes() != 100*PageSize {
		t.Fatalf("size = %d", f.SizeBytes())
	}
	seen := make(map[Content]bool, 100)
	for _, c := range f.Pages {
		if c == ZeroPage {
			t.Fatal("file page with zero content")
		}
		if seen[c] {
			t.Fatalf("duplicate page content %#x", c)
		}
		seen[c] = true
	}
}

func TestTwoFilesDontCollide(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := GenerateFile(rng, "a", 50)
	b := GenerateFile(rng, "b", 50)
	set := map[Content]bool{}
	for _, c := range a.Pages {
		set[c] = true
	}
	for _, c := range b.Pages {
		if set[c] {
			t.Fatalf("cross-file duplicate %#x", c)
		}
	}
}

func TestMutatedChangesEveryPage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := GenerateFile(rng, "file-a", 64)
	v2 := a.Mutated()
	if v2.NumPages() != a.NumPages() {
		t.Fatal("mutated length differs")
	}
	if v2.Name != "file-a.v2" {
		t.Fatalf("mutated name = %q", v2.Name)
	}
	for i := range a.Pages {
		if a.Pages[i] == v2.Pages[i] {
			t.Fatalf("page %d unchanged by mutation", i)
		}
		if v2.Pages[i] == ZeroPage {
			t.Fatalf("page %d mutated to zero", i)
		}
	}
	// Original is untouched.
	b := GenerateFile(rand.New(rand.NewSource(3)), "file-a", 64)
	for i := range a.Pages {
		if a.Pages[i] != b.Pages[i] {
			t.Fatal("Mutated modified the original file")
		}
	}
}

func TestMutatedTwiceDiffersFromBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := GenerateFile(rng, "f", 8)
	v2 := a.Mutated()
	v3 := v2.Mutated()
	for i := range a.Pages {
		if v3.Pages[i] == v2.Pages[i] {
			t.Fatalf("page %d: v3 == v2", i)
		}
		if v3.Pages[i] == a.Pages[i] {
			t.Fatalf("page %d: mutation is involutive", i)
		}
	}
}

func TestFileSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := GenerateFile(rng, "img", 20)
	s := f.Slice(5, 10)
	if s.NumPages() != 10 {
		t.Fatalf("slice pages = %d", s.NumPages())
	}
	for i := 0; i < 10; i++ {
		if s.Pages[i] != f.Pages[5+i] {
			t.Fatalf("slice page %d mismatch", i)
		}
	}
	// No shared backing.
	s.Pages[0] = 0xdead
	if f.Pages[5] == 0xdead {
		t.Fatal("slice shares backing array")
	}
	// Clamping.
	if got := f.Slice(15, 100).NumPages(); got != 5 {
		t.Fatalf("clamped slice = %d", got)
	}
	if got := f.Slice(-3, 2).NumPages(); got != 2 {
		t.Fatalf("negative-from slice = %d", got)
	}
	if got := f.Slice(50, 2).NumPages(); got != 0 {
		t.Fatalf("past-end slice = %d", got)
	}
}

func TestLoadFileAndResidency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := GenerateFile(rng, "probe", 10)
	s := NewSpace("g", PageSize*32)
	if err := s.LoadFile(f, 4); err != nil {
		t.Fatal(err)
	}
	if s.DirtyCount() != 0 {
		t.Fatal("LoadFile marked pages dirty")
	}
	if got := s.FileResident(f, 4); got != 10 {
		t.Fatalf("resident = %d, want 10", got)
	}
	if got := s.FileResident(f, 5); got != 0 {
		t.Fatalf("offset residency = %d, want 0", got)
	}
	// Overwrite one page: residency drops by one.
	if _, err := s.Write(6, 0x1234); err != nil {
		t.Fatal(err)
	}
	if got := s.FileResident(f, 4); got != 9 {
		t.Fatalf("residency after overwrite = %d, want 9", got)
	}
}

func TestLoadFileOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := GenerateFile(rng, "big", 10)
	s := NewSpace("g", PageSize*8)
	if err := s.LoadFile(f, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if err := s.LoadFile(f, -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestLoadFileDetachesSharedPages(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := GenerateFile(rng, "probe", 2)
	s := NewSpace("g", PageSize*4)
	g := &SharedGroup{Content: ZeroPage}
	if err := s.AttachShared(0, g); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadFile(f, 0); err != nil {
		t.Fatal(err)
	}
	if g.Refs != 0 {
		t.Fatalf("shared refs after load = %d, want 0", g.Refs)
	}
	if _, ok := s.Shared(0); ok {
		t.Fatal("page still shared after LoadFile")
	}
}

func TestFileResidentPartiallyOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := GenerateFile(rng, "probe", 4)
	s := NewSpace("g", PageSize*4)
	if err := s.LoadFile(f, 0); err != nil {
		t.Fatal(err)
	}
	// Offset 2: pages 2,3 match positions 0,1 of... no, they hold f[2],f[3],
	// which differ from f[0],f[1]; and positions 4,5 are out of range.
	if got := s.FileResident(f, 2); got != 0 {
		t.Fatalf("partial out-of-range residency = %d, want 0", got)
	}
}

// Property: mutation is deterministic, never identity, and never zero.
func TestMutateContentProperty(t *testing.T) {
	f := func(c Content) bool {
		m := MutateContent(c)
		return m != c && m != ZeroPage && m == MutateContent(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
