package mem

import "math/bits"

// Bitmap is a fixed-size bitset used for per-page dirty tracking. Live
// migration's pre-copy loop fetches and clears it once per round, a word
// at a time (Space.PullDirty), so the operations are kept allocation-free.
//
// The word array is allocated lazily on the first Set/SetAll: an all-clear
// bitmap carries no storage, which is what keeps SpawnFrom — whose forked
// spaces start with an empty dirty log — O(1) in both time and bytes
// regardless of how much guest memory the bitmap covers.
type Bitmap struct {
	words []uint64
	n     int
	set   int
}

// NewBitmap returns a bitmap of n bits, all clear. No word storage is
// allocated until a bit is first set.
func NewBitmap(n int) *Bitmap {
	if n < 0 {
		n = 0
	}
	return &Bitmap{n: n}
}

// ensure allocates the word array on first use.
func (b *Bitmap) ensure() {
	if b.words == nil && b.n > 0 {
		b.words = make([]uint64, (b.n+63)/64)
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int { return b.set }

// Test reports whether bit i is set. Out-of-range bits read as clear.
//
//detlint:hotpath
func (b *Bitmap) Test(i int) bool {
	if i < 0 || i >= b.n || b.words == nil {
		return false
	}
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Set sets bit i. Out-of-range indices are ignored.
//
//detlint:hotpath
func (b *Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.ensure()
	w, m := i/64, uint64(1)<<(uint(i)%64)
	if b.words[w]&m == 0 {
		b.words[w] |= m
		b.set++
	}
}

// Clear clears bit i. Out-of-range indices are ignored.
//
//detlint:hotpath
func (b *Bitmap) Clear(i int) {
	if i < 0 || i >= b.n || b.words == nil {
		return
	}
	w, m := i/64, uint64(1)<<(uint(i)%64)
	if b.words[w]&m != 0 {
		b.words[w] &^= m
		b.set--
	}
}

// ClearAll clears every bit.
//
//detlint:hotpath
func (b *Bitmap) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.set = 0
}

// SetAll sets every bit, filling whole words at a time.
//
//detlint:hotpath
func (b *Bitmap) SetAll() {
	if b.n == 0 {
		return
	}
	b.ensure()
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if tail := uint(b.n) % 64; tail != 0 {
		b.words[len(b.words)-1] = (uint64(1) << tail) - 1
	}
	b.set = b.n
}

// orWord ORs w into word wi, keeping the set-bit count, and returns the
// word's previous value. Callers must have bounds-checked wi and keep w's
// bits below Len.
//
//detlint:hotpath
func (b *Bitmap) orWord(wi int, w uint64) uint64 {
	b.ensure()
	old := b.words[wi]
	b.words[wi] = old | w
	b.set += bits.OnesCount64(w &^ old)
	return old
}

// setRange sets bits [lo, hi) a word at a time. Callers must have
// bounds-checked the range.
//
//detlint:hotpath
func (b *Bitmap) setRange(lo, hi int) {
	for lo < hi {
		end := min(hi, (lo|63)+1)
		b.orWord(lo/64, ^uint64(0)>>(64-uint(end-lo))<<(uint(lo)%64))
		lo = end
	}
}
