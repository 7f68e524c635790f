// Package rng provides a small, fast, deterministic random number source used
// by every stochastic component in the simulator (channel noise, fading,
// traffic processes, workload generators).
//
// All experiments in this repository are seeded, so a run with the same seed
// reproduces bit-identical results. The generator is xoshiro256** seeded via
// SplitMix64, following the reference construction by Blackman and Vigna.
// math/rand is deliberately not used: its global state makes experiments
// order-dependent, and per-experiment *rand.Rand values do not support the
// cheap stream forking that the simulator needs.
package rng

import "math"

// Source is a deterministic pseudo-random source. It is not safe for
// concurrent use; fork one Source per goroutine with Fork.
type Source struct {
	s [4]uint64
	// cached second output of the Box-Muller transform
	gauss    float64
	hasGauss bool
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, as recommended by the xoshiro authors.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitMix64(&sm)
	}
	// A theoretically possible all-zero state would make the generator stick.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Fork derives an independent child stream. The label decorrelates children
// forked from the same parent state.
func (r *Source) Fork(label uint64) *Source {
	return New(r.Uint64() ^ (label * 0xd1342543de82ef95))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 significant bits, as in the reference implementation.
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster, but
	// modulo over 64 bits has negligible bias for the n used here (< 2^32).
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box-Muller, cached pair).
func (r *Source) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	v := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.gauss = mag * math.Sin(2*math.Pi*v)
	r.hasGauss = true
	return mag * math.Cos(2*math.Pi*v)
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *Source) ExpFloat64() float64 {
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Complex returns a circularly symmetric complex Gaussian sample with the
// given standard deviation per real dimension.
func (r *Source) Complex(sigma float64) complex128 {
	return complex(sigma*r.NormFloat64(), sigma*r.NormFloat64())
}

// Bit returns a uniform 0/1 value.
func (r *Source) Bit() byte { return byte(r.Uint64() >> 63) }

// Bits fills dst with uniform 0/1 bytes and returns it.
func (r *Source) Bits(dst []byte) []byte {
	for i := range dst {
		dst[i] = r.Bit()
	}
	return dst
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using the given swap function.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
