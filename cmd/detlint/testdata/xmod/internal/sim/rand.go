package sim

// Rand stands in for the engine's generator: NewRand takes a seed as
// rand.NewSource does, so seedflow checks its argument, and a draw from a
// Rand carries the root seed's provenance.
type Rand struct {
	state uint64
}

func NewRand(seed int64) *Rand { return &Rand{state: uint64(seed)} }

func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return r.state
}

func (r *Rand) Seed(seed int64) { r.state = uint64(seed) }

func literalSeed() *Rand {
	return NewRand(42) // WANT seedflow
}

func underivedSeed(n int64) *Rand {
	return NewRand(n * 3) // WANT seedflow
}

func reseed(r *Rand) {
	r.Seed(7) // WANT seedflow
}

// Seeds runs every seeding shape above, so a main reaches them.
func Seeds(seed int64) []*Rand {
	r := derivedSeeds(seed)
	reseed(r)
	return []*Rand{literalSeed(), underivedSeed(seed), r}
}

// derivedSeeds are legal: a seed-named parameter, and a draw from a
// seeded Rand.
func derivedSeeds(seed int64) *Rand {
	r := NewRand(seed)
	return NewRand(int64(r.Uint64()))
}
