package sim

import "math/rand"

// Rand is the simulation's random generator. It yields exactly the stream
// of rand.New(rand.NewSource(seed)), which every golden pins draw for draw,
// but generates it in blocks with math/rand's own additive lagged-Fibonacci
// recurrence, x[n] = x[n−607] + x[n−273] mod 2⁶⁴, and serves Uint64,
// Float64 and the bulk draws FillPages and FillOdd without an interface
// call per value.
//
// The embedded *rand.Rand is built over the same source, so Int63, Intn,
// Int63n, Uint32, NormFloat64, ExpFloat64 and the rest draw from the one
// stream and stay aligned with the direct draws. Only its Read buffers
// values ahead of the stream; nothing in the module calls it.
type Rand struct {
	*rand.Rand
	src source
}

// lfgLen and lfgTap are math/rand's lags. Output n of its source is
// x[n−lfgLen] + x[n−lfgTap] for every n ≥ lfgLen, so its last lfgLen
// outputs are all the state the stream needs.
const (
	lfgLen = 607
	lfgTap = 273
)

// source is the block generator behind a Rand. Its first block is the first
// lfgLen outputs of math/rand's seeded source; each refill advances the
// block by lfgLen outputs in place.
type source struct {
	seeded rand.Source64   // serves the first block; nil once it has
	buf    *[lfgLen]uint64 // the current block; nil until the first draw
	pos    int             // next unread index into buf; lfgLen when spent
}

// NewRand returns a generator whose stream is that of
// rand.New(rand.NewSource(seed)). It costs what that costs: the first block
// and its buffer are drawn on first use, not here, because most engines are
// built long before (or without ever) drawing.
func NewRand(seed int64) *Rand {
	r := &Rand{src: newSource(seed)}
	r.Rand = rand.New(&r.src)
	return r
}

func newSource(seed int64) source {
	return source{seeded: rand.NewSource(seed).(rand.Source64), pos: lfgLen}
}

// Seed restarts the stream as rand.NewSource(seed) would.
func (s *source) Seed(seed int64) { *s = newSource(seed) }

// Int63 returns the next value with its top bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 returns the next value of the stream.
//
//detlint:hotpath
func (s *source) Uint64() uint64 {
	if s.pos == lfgLen {
		s.refill()
	}
	v := s.buf[s.pos]
	s.pos++
	return v
}

// refill replaces the spent block with the next lfgLen outputs. Output
// j of the new block is old[j] + out[j+lfgLen−lfgTap] in stream terms:
// for j < lfgTap that tap still sits in the old block, further on it is a
// value this pass has already written.
//
//detlint:hotpath
func (s *source) refill() {
	if s.buf == nil {
		s.start()
		return
	}
	b := s.buf
	for j := 0; j < lfgTap; j++ {
		b[j] += b[j+lfgLen-lfgTap]
	}
	for j := lfgTap; j < lfgLen; j++ {
		b[j] += b[j-lfgTap]
	}
	s.pos = 0
}

// start allocates the block buffer and fills it from math/rand's seeded
// source, which it then drops.
func (s *source) start() {
	s.buf = new([lfgLen]uint64)
	for j := range s.buf {
		s.buf[j] = s.seeded.Uint64()
	}
	s.seeded = nil
	s.pos = 0
}

// Uint64 returns the next 64-bit value, as (*rand.Rand).Uint64 does.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Float64 returns a value in [0, 1) exactly as (*rand.Rand).Float64 does:
// the next Int63 over 2⁶³, drawn again when that rounds up to 1.
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.src.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// redrawFrom is the smallest 63-bit draw Float64 rejects: from it on,
// float64(x) rounds up to 2⁶³ and the quotient to 1.
const redrawFrom = 1<<63 - 512

// zeroBelow turns Float64's compare into an integer compare: for every
// 63-bit x below redrawFrom, float64(x)/2⁶³ < zeroFraction exactly when
// x < zeroBelow(zeroFraction). The quotient is monotone in x, so the bound
// is found by bisection. A NaN fraction gives 0: nothing compares below NaN.
func zeroBelow(zeroFraction float64) uint64 {
	lo, hi := uint64(0), uint64(redrawFrom)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) < zeroFraction {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// FillPages writes dst as the per-page loop
//
//	if r.Float64() < zeroFraction { dst[i] = 0 } else { dst[i] = T(r.Uint64() | 1) }
//
// does, and leaves the stream where that loop would. A page reads one word
// for the compare and, unless it stays zero, a second for its contents; the
// pair is picked branch-free off the block. A word Float64 would draw again
// (one in 2⁵⁴) and a page straddling two blocks take the per-draw path.
//
//detlint:hotpath
func FillPages[T ~uint64](r *Rand, dst []T, zeroFraction float64) {
	k := zeroBelow(zeroFraction)
	s := &r.src
	for i := 0; i < len(dst); {
		if s.pos == lfgLen {
			s.refill()
		}
		buf := s.buf[s.pos:]
		p := 0
		for ; i < len(dst) && p+1 < len(buf); i++ {
			x := buf[p] & (1<<63 - 1)
			if x >= redrawFrom {
				break
			}
			zero := (x - k) >> 63 // 1 when x < k
			dst[i] = T((buf[p+1] | 1) & (zero - 1))
			p += 2 - int(zero)
		}
		s.pos += p
		if i < len(dst) {
			if r.Float64() < zeroFraction {
				dst[i] = 0
			} else {
				dst[i] = T(r.Uint64() | 1)
			}
			i++
		}
	}
}

// FillOdd writes the stream's next len(dst) values into dst, each ORed with
// 1, as `for i := range dst { dst[i] = T(r.Uint64() | 1) }` does.
//
//detlint:hotpath
func FillOdd[T ~uint64](r *Rand, dst []T) {
	s := &r.src
	for len(dst) > 0 {
		if s.pos == lfgLen {
			s.refill()
		}
		n := min(lfgLen-s.pos, len(dst))
		for j, x := range s.buf[s.pos : s.pos+n] {
			dst[j] = T(x | 1)
		}
		s.pos += n
		dst = dst[n:]
	}
}
