package mem

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// setBits lists b's set bits in ascending order, reading whole words so a
// ghost bit past the last index shows too.
func setBits(b *Bitmap) []int {
	var got []int
	for wi, w := range b.words {
		for ; w != 0; w &= w - 1 {
			got = append(got, wi*64+bits.TrailingZeros64(w))
		}
	}
	return got
}

// dirtyPages lists s's dirty pages in ascending order without clearing
// them.
func dirtyPages(s *Space) []int { return setBits(&s.dirty) }

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130) // spans three words
	if b.n != 130 || b.Count() != 0 {
		t.Fatalf("fresh bitmap len=%d count=%d", b.n, b.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("count = %d, want 4", b.Count())
	}
	b.Set(63) // idempotent
	if b.Count() != 4 {
		t.Fatalf("double-set changed count to %d", b.Count())
	}
	b.Clear(63)
	if b.Test(63) || b.Count() != 3 {
		t.Fatalf("clear failed: test=%v count=%d", b.Test(63), b.Count())
	}
	b.Clear(63) // idempotent
	if b.Count() != 3 {
		t.Fatalf("double-clear changed count to %d", b.Count())
	}
}

func TestBitmapOutOfRange(t *testing.T) {
	b := NewBitmap(10)
	b.Set(-1)
	b.Set(10)
	b.Clear(-1)
	b.Clear(10)
	if b.Count() != 0 {
		t.Fatalf("out-of-range ops changed count to %d", b.Count())
	}
	if b.Test(-1) || b.Test(10) {
		t.Fatal("out-of-range Test returned true")
	}
}

func TestBitmapNegativeSize(t *testing.T) {
	b := NewBitmap(-5)
	if b.n != 0 {
		t.Fatalf("negative-size bitmap len = %d", b.n)
	}
}

func TestBitmapSetAllClearAll(t *testing.T) {
	b := NewBitmap(100)
	b.SetAll()
	if b.Count() != 100 {
		t.Fatalf("SetAll count = %d", b.Count())
	}
	b.ClearAll()
	if b.Count() != 0 {
		t.Fatalf("ClearAll count = %d", b.Count())
	}
}

// Property: after setting an arbitrary set of indices, Count equals the
// number of distinct in-range indices, and exactly those are set, in
// ascending order.
func TestBitmapProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 4096
		b := NewBitmap(n)
		distinct := map[int]bool{}
		for _, r := range raw {
			i := int(r) % n
			b.Set(i)
			distinct[i] = true
		}
		if b.Count() != len(distinct) {
			return false
		}
		got := setBits(b)
		if len(got) != len(distinct) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				return false
			}
		}
		for _, i := range got {
			if !distinct[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
