// Package rng provides seeded, splittable random number streams.
//
// The synthetic deployment must be reproducible from a single seed, and —
// just as important — *stable under composition*: adding a new home to the
// world must not perturb the random draws of existing homes. We get both by
// deriving independent child streams from a parent via an splitmix64-based
// key derivation, rather than sharing one sequence.
//
// The generator is xoshiro256** (Blackman & Vigna), which is small, fast,
// and has no stdlib dependency beyond math.
package rng

import "math"

// Stream is a deterministic random stream. It is not safe for concurrent
// use; derive one stream per goroutine/entity instead.
type Stream struct {
	s [4]uint64
}

// splitmix64 is used for seeding and for deriving child stream keys, as
// recommended by the xoshiro authors.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed.
func New(seed uint64) *Stream {
	s := &Stream{}
	x := seed
	for i := range s.s {
		s.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	return s
}

// Child derives an independent stream from this stream's seed material and
// a label. Deriving is pure: it does not consume from the parent, so the
// set and order of Child calls never changes the parent's sequence.
func (r *Stream) Child(label string) *Stream {
	x := r.s[0] ^ 0xa5a5a5a5a5a5a5a5
	h := splitmix64(&x)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		x = h
		h = splitmix64(&x)
	}
	h ^= r.s[3]
	x = h
	return New(splitmix64(&x))
}

// ChildN derives an independent stream keyed by an integer index.
func (r *Stream) ChildN(label string, n int) *Stream {
	c := r.Child(label)
	x := c.s[2] ^ uint64(n)*0x9e3779b97f4a7c15
	return New(splitmix64(&x))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Stream) Uint64() uint64 {
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

// Float64 returns a uniform value in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative 63-bit value.
func (r *Stream) Int63() int64 { return int64(r.Uint64() >> 1) }

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool { return r.Float64() < p }

// Range returns a uniform value in [lo, hi).
func (r *Stream) Range(lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed value with the given mean and
// standard deviation (Box–Muller).
func (r *Stream) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Exp returns an exponentially distributed value with the given mean.
// Exponential inter-arrival times model ISP outage arrivals and flow
// arrivals throughout the simulator.
func (r *Stream) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// LogNormal returns a log-normally distributed value parameterized by the
// underlying normal's mu and sigma. Heavy-tailed durations (downtime
// lengths, flow sizes) use this.
func (r *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Pareto returns a Pareto-distributed value with scale xm and shape alpha.
// Traffic volume tails in the generator are Pareto, matching the paper's
// observation of long-tailed per-domain and per-device volumes.
func (r *Stream) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson returns a Poisson-distributed count with the given mean (Knuth's
// method for small means, normal approximation above 30).
func (r *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(r.Norm(mean, math.Sqrt(mean)) + 0.5)
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Zipf returns a rank in [0, n) drawn from a Zipf distribution with
// exponent s. Domain popularity follows Zipf, which is what produces the
// paper's "38% of volume from one domain" concentration.
func (r *Stream) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF on the harmonic weights; n is small (≤ a few hundred)
	// everywhere we use this, so linear scan is fine and allocation-free
	// users can precompute via NewZipf.
	total := 0.0
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), s)
	}
	u := r.Float64() * total
	acc := 0.0
	for k := 1; k <= n; k++ {
		acc += 1 / math.Pow(float64(k), s)
		if u <= acc {
			return k - 1
		}
	}
	return n - 1
}

// Zipf is a precomputed Zipf sampler over ranks [0, n).
type Zipf struct {
	cum []float64
}

// NewZipf precomputes the cumulative weights for a Zipf(s) distribution
// over n ranks.
func NewZipf(n int, s float64) *Zipf {
	z := &Zipf{cum: make([]float64, n)}
	acc := 0.0
	for k := 1; k <= n; k++ {
		acc += 1 / math.Pow(float64(k), s)
		z.cum[k-1] = acc
	}
	return z
}

// Sample draws a rank in [0, n).
func (z *Zipf) Sample(r *Stream) int {
	u := r.Float64() * z.cum[len(z.cum)-1]
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero or negative total weight panics.
func (r *Stream) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: WeightedChoice with non-positive total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u <= acc {
			return i
		}
	}
	return len(weights) - 1
}
