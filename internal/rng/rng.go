// Package rng provides a deterministic, splittable pseudo-random number
// generator and the skewed-distribution samplers used throughout the
// Zoomer reproduction (power-law popularity, Zipf ranks, Gaussian noise).
//
// The library deliberately avoids math/rand so that every experiment is
// reproducible bit-for-bit from a seed, independent of the Go release and
// of global generator state. The core generator is xoshiro256**, seeded
// through splitmix64 as its authors recommend.
package rng

import "math"

// RNG is a xoshiro256** generator. The zero value is not usable; construct
// with New. RNG is not safe for concurrent use; use Split to derive
// independent streams for concurrent goroutines.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the seed and returns the next splitmix64 output.
// It is used both for seeding xoshiro and for Split.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically seeded from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Reseed re-initializes r in place from seed, exactly as New(seed) would,
// without allocating. The engine's scatter-gather batch sampler uses it to
// derive one deterministic sub-stream per batch entry from a reused
// generator, so batch results do not depend on per-shard visit order.
func (r *RNG) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// State snapshots the generator's internal state. Together with SetState
// it lets the RPC graph backend transport a caller's stream to a remote
// shard: the state travels in the request, the draws happen shard-side,
// and the final state travels back — so a remote sample consumes the
// caller's stream exactly as an in-process one would.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState restores a state captured by State.
func (r *RNG) SetState(s [4]uint64) { r.s = s }

// Split returns a new generator whose stream is statistically independent
// of r's. It perturbs a fresh splitmix64 chain with r's next output, so
// repeated Split calls yield distinct streams.
func (r *RNG) Split() *RNG {
	seed := r.Uint64()
	return New(seed ^ 0xd1b54a32d192ed03)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float32 returns a uniform value in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, as in sort.Slice conventions.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method. It is a little slower than a ziggurat but has no tables and is
// plenty fast for workload generation.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Zipf samples ranks from a Zipf distribution over [0, n) with exponent s
// (s > 0). It precomputes the CDF once, so construction is O(n) and each
// Sample is O(log n). Graph workloads use n up to a few million, for which
// the table is small relative to the graph itself.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over ranks [0, n) with exponent s.
// It panics if n <= 0 or s <= 0.
func NewZipf(r *RNG, n int, s float64) *Zipf {
	if n <= 0 || s <= 0 {
		panic("rng: NewZipf requires n > 0 and s > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1.0 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1.0
	return &Zipf{cdf: cdf, rng: r}
}

// Sample draws a rank in [0, n) with Zipfian probabilities; rank 0 is the
// most popular.
func (z *Zipf) Sample() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
