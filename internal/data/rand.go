package data

import "math"

// Rand is a small deterministic PRNG (splitmix64 core feeding an xorshift*
// state) used everywhere randomness is needed. We deliberately avoid
// math/rand so that the stream is stable across Go versions, which keeps the
// synthetic workloads and experiment outputs reproducible.
type Rand struct {
	state uint64
}

// NewRand seeds a generator. Seed 0 is remapped to a fixed non-zero value.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r := &Rand{state: seed}
	// Warm up so nearby seeds diverge.
	for i := 0; i < 4; i++ {
		r.Uint64()
	}
	return r
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("data: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a value in [0, n).
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("data: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Zipf returns a value in [0, n) following an approximate Zipf distribution
// with exponent s > 0. Small values are exponentially more likely, matching
// the heavy-tailed dataset-sharing pattern reported in the paper (Figure 2).
func (r *Rand) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF sampling on the continuous approximation.
	u := r.Float64()
	if s == 1 {
		s = 1.0001
	}
	// CDF ~ (x^(1-s)-1)/(n^(1-s)-1)
	e := 1 - s
	x := 1 + u*(math.Pow(float64(n), e)-1)
	v := int(math.Pow(x, 1/e)) - 1
	if v < 0 {
		v = 0
	}
	if v >= n {
		v = n - 1
	}
	return v
}

// Fork derives an independent generator from this one, keyed by id, without
// advancing the parent in a way that depends on fork order.
func (r *Rand) Fork(id uint64) *Rand {
	return NewRand(r.state ^ (id+1)*0xda942042e4dd58b5)
}

// Shuffle permutes the slice in place.
func Shuffle[T any](r *Rand, items []T) {
	for i := len(items) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		items[i], items[j] = items[j], items[i]
	}
}
