package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refFillPages is the per-page loop FillPages reproduces, on any generator.
func refFillPages(rng interface {
	Float64() float64
	Uint64() uint64
}, dst []uint64, zeroFraction float64) {
	for i := range dst {
		if rng.Float64() < zeroFraction {
			dst[i] = 0
		} else {
			dst[i] = rng.Uint64() | 1
		}
	}
}

// fillFractions are the zero fractions the differential checks cycle
// through: the ones the module uses, the edges, and the nonsense values
// (NaN zeroes nothing; at or above 1 everything Float64 returns is below).
var fillFractions = []float64{0, 0.25, 1, math.NaN(), -1, 2, math.Inf(1), 0.3, 0.35, 0.5, math.Inf(-1), 0x1p-60}

// checkRandOps decodes ops into a sequence of draws, runs it on a Rand and
// on rand.New(rand.NewSource(seed)) side by side, and fails on the first
// difference. Bulk draws are compared against their per-draw loops, with
// lengths up to a few blocks so they cross block boundaries. Afterwards
// the two streams must still be aligned.
func checkRandOps(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	got, want := NewRand(seed), rand.New(rand.NewSource(seed))
	var gbuf, wbuf []uint64
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], ops[i+1], ops[i+2]
		n := int(a)<<8 | int(b)
		switch op % 10 {
		case 0:
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("op %d: Uint64 = %#x, math/rand %#x", i/3, g, w)
			}
		case 1:
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("op %d: Int63 = %#x, math/rand %#x", i/3, g, w)
			}
		case 2:
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("op %d: Float64 = %v, math/rand %v", i/3, g, w)
			}
		case 3:
			if g, w := got.Intn(n+1), want.Intn(n+1); g != w {
				t.Fatalf("op %d: Intn(%d) = %d, math/rand %d", i/3, n+1, g, w)
			}
		case 4:
			m := int64(n+1) << (a % 40)
			if g, w := got.Int63n(m), want.Int63n(m); g != w {
				t.Fatalf("op %d: Int63n(%d) = %d, math/rand %d", i/3, m, g, w)
			}
		case 5:
			if g, w := got.Uint32(), want.Uint32(); g != w {
				t.Fatalf("op %d: Uint32 = %d, math/rand %d", i/3, g, w)
			}
		case 6:
			if g, w := got.NormFloat64(), want.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("op %d: NormFloat64 = %v, math/rand %v", i/3, g, w)
			}
		case 7:
			if g, w := got.ExpFloat64(), want.ExpFloat64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("op %d: ExpFloat64 = %v, math/rand %v", i/3, g, w)
			}
		case 8:
			n %= 3 * lfgLen
			frac := fillFractions[int(a^b)%len(fillFractions)]
			gbuf, wbuf = make([]uint64, n), make([]uint64, n)
			FillPages(got, gbuf, frac)
			refFillPages(want, wbuf, frac)
			for j := range wbuf {
				if gbuf[j] != wbuf[j] {
					t.Fatalf("op %d: FillPages(%d pages, %v)[%d] = %#x, per-page loop %#x", i/3, n, frac, j, gbuf[j], wbuf[j])
				}
			}
		case 9:
			n %= 3 * lfgLen
			gbuf, wbuf = make([]uint64, n), make([]uint64, n)
			FillOdd(got, gbuf)
			for j := range wbuf {
				wbuf[j] = want.Uint64() | 1
			}
			for j := range wbuf {
				if gbuf[j] != wbuf[j] {
					t.Fatalf("op %d: FillOdd(%d)[%d] = %#x, per-draw loop %#x", i/3, n, j, gbuf[j], wbuf[j])
				}
			}
		}
	}
	for j := 0; j < 2*lfgLen; j++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("stream out of step after the sequence: draw %d = %#x, math/rand %#x", j, g, w)
		}
	}
}

// FuzzRandMatchesMathRand: any sequence of draws a Rand serves, direct,
// through the embedded *rand.Rand or in bulk, is the sequence
// rand.New(rand.NewSource(seed)) serves.
func FuzzRandMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 8, 1, 0, 9, 2, 100, 2, 0, 0})
	f.Add(int64(-7), []byte{3, 0, 9, 4, 1, 1, 5, 0, 0, 6, 0, 0, 7, 0, 0, 8, 7, 255, 0, 0, 0})
	f.Add(int64(0), []byte{9, 2, 94, 8, 2, 95, 8, 3, 3, 9, 0, 1, 8, 0, 0})
	f.Add(int64(math.MaxInt64), []byte{8, 4, 187, 8, 5, 13, 8, 6, 200, 2, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		checkRandOps(t, seed, ops)
	})
}

// TestRandMatchesMathRand runs long mixed sequences at a spread of seeds,
// so every op and fraction is covered without the fuzzer.
func TestRandMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{1, 7, 101, -3, 0, 1 << 40} {
		src := rand.New(rand.NewSource(seed ^ 0x5eed))
		ops := make([]byte, 3*400)
		for i := range ops {
			ops[i] = byte(src.Intn(256))
		}
		checkRandOps(t, seed, ops)
	}
}

// TestFillPagesRedraw plants a word Float64 draws again — probability
// 2⁻⁵⁴ per word, so no seed reaches it — at each role a word can play: a
// page's compare word mid-block, its content word, the last word of a
// block, and a run of them. FillPages on one Rand must match math/rand's
// own Float64/Uint64 loop, run through the embedded *rand.Rand of an
// identically planted twin, and leave both streams aligned.
func TestFillPagesRedraw(t *testing.T) {
	const top = 1<<63 - 1
	for _, tc := range []struct {
		name  string
		plant map[int]uint64 // block index -> word
	}{
		{"compare word", map[int]uint64{0: redrawFrom}},
		{"sign bit set", map[int]uint64{0: 1<<64 - 1}},
		{"just below", map[int]uint64{0: redrawFrom - 1}},
		{"content word", map[int]uint64{1: top}},
		{"block end", map[int]uint64{lfgLen - 1: redrawFrom + 7}},
		{"run", map[int]uint64{10: top, 11: redrawFrom, 12: top - 3, 13: 1 << 63}},
	} {
		for _, frac := range []float64{0, 0.25, 1} {
			a, b := NewRand(11), NewRand(11)
			a.src.refill()
			b.src.refill()
			for i, w := range tc.plant {
				a.src.buf[i], b.src.buf[i] = w, w
			}
			got, want := make([]uint64, 700), make([]uint64, 700)
			FillPages(a, got, frac)
			refFillPages(b.Rand, want, frac)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, fraction %v: page %d = %#x, math/rand loop %#x", tc.name, frac, i, got[i], want[i])
				}
			}
			for j := 0; j < lfgLen; j++ {
				if g, w := a.Uint64(), b.Rand.Uint64(); g != w {
					t.Fatalf("%s, fraction %v: stream out of step at draw %d", tc.name, frac, j)
				}
			}
		}
	}
}

// TestZeroBelowMatchesFloat64: the integer bound agrees with Float64's
// compare on both sides of it.
func TestZeroBelowMatchesFloat64(t *testing.T) {
	below := func(x uint64, f float64) bool { return float64(int64(x))/(1<<63) < f }
	for _, f := range append(fillFractions, 0x1p-63, 0x1p-10, 1-0x1p-53, math.Nextafter(1, 0), 0.1, 0.7) {
		k := zeroBelow(f)
		if k > 0 && !below(k-1, f) {
			t.Errorf("fraction %v: bound %d, but %d does not compare below", f, k, k-1)
		}
		if k < redrawFrom && below(k, f) {
			t.Errorf("fraction %v: bound %d, but it compares below", f, k)
		}
	}
}

// TestNewRandCostsWhatMathRandCosts guards set-up cost: a Rand that never
// draws allocates at most 256 bytes more than rand.New(rand.NewSource(seed))
// — its block buffer comes on first use — and the buffer arrives then.
func TestNewRandCostsWhatMathRandCosts(t *testing.T) {
	const n = 64
	bytesPer := func(fn func(i int)) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			fn(i)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	sinks := make([]*Rand, n)
	refs := make([]*rand.Rand, n)
	ours := bytesPer(func(i int) { sinks[i] = NewRand(int64(i)) })
	theirs := bytesPer(func(i int) { refs[i] = rand.New(rand.NewSource(int64(i))) })
	if ours > theirs+256 {
		t.Fatalf("NewRand allocates %d B, rand.New(rand.NewSource) %d B: more than 256 B over", ours, theirs)
	}
	for _, r := range sinks {
		if r.src.buf != nil {
			t.Fatal("NewRand built its block buffer before the first draw")
		}
	}
	first := bytesPer(func(i int) { sinks[i].Uint64() })
	if first < 8*lfgLen {
		t.Fatalf("first draw allocated %d B, want the %d-byte block buffer", first, 8*lfgLen)
	}
}

func BenchmarkFillPages(b *testing.B) {
	dst := make([]uint64, 1<<18) // a 1 GiB guest's pages
	b.Run("bulk", func(b *testing.B) {
		r := NewRand(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			FillPages(r, dst, 0.25)
		}
	})
	b.Run("per-draw", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refFillPages(r, dst, 0.25)
		}
	})
}

// BenchmarkFillOdd is one kernel-compile dirtier tick: 139 page contents.
func BenchmarkFillOdd(b *testing.B) {
	dst := make([]uint64, 139)
	b.Run("bulk", func(b *testing.B) {
		r := NewRand(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			FillOdd(r, dst)
		}
	})
	b.Run("per-draw", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = r.Uint64() | 1
			}
		}
	})
}

var (
	randSink     *Rand
	mathRandSink *rand.Rand
)

func BenchmarkNewRand(b *testing.B) {
	b.Run("sim", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			randSink = NewRand(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mathRandSink = rand.New(rand.NewSource(int64(i)))
		}
	})
}
