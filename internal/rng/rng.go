// Package rng provides seeded pseudo-random streams and the distributions
// the workload generators and cost models draw from.
//
// Every stochastic component of the simulator owns a Stream derived from a
// master seed plus a component label, so adding a new random consumer does
// not perturb the draws seen by existing ones — a requirement for the
// reproducibility guarantees the experiment harness makes.
package rng

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// Stream is an independent deterministic random stream.
type Stream struct {
	r *rand.Rand
}

// New returns a stream seeded directly with seed.
func New(seed int64) *Stream {
	return &Stream{r: rand.New(rand.NewSource(seed))}
}

// DeriveSeed returns the sub-seed for (seed, label): the value Derive
// seeds its stream with. Exposed so schedulers (internal/sweep) can hand
// out per-job seeds that depend only on the master seed and a stable job
// label, never on execution order.
func DeriveSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64())
}

// Derive returns a sub-stream keyed by the master seed and a label. The
// same (seed, label) pair always yields the same stream, and distinct
// labels yield well-separated streams.
func Derive(seed int64, label string) *Stream {
	return New(DeriveSeed(seed, label))
}

// FNV-1a parameters, matching hash/fnv's 64-bit variant. SeedHasher
// re-implements the hash byte by byte so derivation labels never have to
// be materialized as strings on hot paths.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// SeedHasher incrementally computes the same sub-seed DeriveSeed would
// return for a label built from pieces, without allocating. It is a small
// value: a partially-applied hash state that can be cached — a component
// that derives many seeds sharing a label prefix (e.g. the fault
// injector's "fault:<layer>:" per-layer prefixes) hashes the prefix once
// and extends the cached state per decision.
//
//	h := rng.NewSeedHasher(seed).String("fault:host:")   // cache this
//	sub := h.Int(taskID).Byte(':').Int(attempt).Seed()
//	// sub == rng.DeriveSeed(seed, fmt.Sprintf("fault:host:%d:%d", taskID, attempt))
//
// The equivalence with DeriveSeed is pinned by a golden test; it is what
// lets hot paths switch to SeedHasher without perturbing a single draw.
type SeedHasher struct{ h uint64 }

// NewSeedHasher starts a derivation for the given master seed: the state
// after hashing "<seed>/", which every DeriveSeed label is prefixed with.
func NewSeedHasher(seed int64) SeedHasher {
	return SeedHasher{h: fnvOffset64}.Int(seed).Byte('/')
}

// Byte extends the label with one byte.
func (s SeedHasher) Byte(b byte) SeedHasher {
	s.h = (s.h ^ uint64(b)) * fnvPrime64
	return s
}

// String extends the label with a string.
func (s SeedHasher) String(str string) SeedHasher {
	for i := 0; i < len(str); i++ {
		s.h = (s.h ^ uint64(str[i])) * fnvPrime64
	}
	return s
}

// Int extends the label with the decimal representation of n, exactly as
// a %d format verb would render it.
func (s SeedHasher) Int(n int64) SeedHasher {
	var buf [20]byte
	for _, b := range strconv.AppendInt(buf[:0], n, 10) {
		s.h = (s.h ^ uint64(b)) * fnvPrime64
	}
	return s
}

// Seed returns the derived sub-seed for the label accumulated so far.
func (s SeedHasher) Seed() int64 { return int64(s.h) }

// 32-bit FNV-1a parameters, for hash-partitioning keys (not seed
// derivation): offset basis and prime from the FNV reference.
const (
	fnvOffset32 uint32 = 2166136261
	fnvPrime32  uint32 = 16777619
)

// Hash32 is SeedHasher's 32-bit sibling: an incremental allocation-free
// FNV-1a hash for partitioning string keys onto buckets (the director's
// sticky-org datastore pinning). It is a value type so a partially
// applied state can be cached per prefix, like SeedHasher.
type Hash32 struct{ h uint32 }

// NewHash32 starts a hash at the FNV-1a 32-bit offset basis.
func NewHash32() Hash32 { return Hash32{h: fnvOffset32} }

// Byte folds one byte into the hash.
func (s Hash32) Byte(b byte) Hash32 {
	s.h = (s.h ^ uint32(b)) * fnvPrime32
	return s
}

// String folds a string into the hash.
func (s Hash32) String(str string) Hash32 {
	for i := 0; i < len(str); i++ {
		s.h = (s.h ^ uint32(str[i])) * fnvPrime32
	}
	return s
}

// Sum returns the hash accumulated so far.
func (s Hash32) Sum() uint32 { return s.h }

// Reseeder is a reusable stream for components that derive a fresh
// sub-stream per decision (the fault injector draws per (layer, task,
// attempt), the drift controller per (VM, epoch)). Such a stream draws
// one or two numbers, so the cost that matters is seeding: math/rand's
// Seed runs 1,821 Lehmer steps to fill a 607-word register (microseconds),
// and New allocates that register too. Reseed instead re-seeds one
// cached jumpSource, which stores the seed and computes register words
// on first touch (tens of ns, no allocation), yet yields exactly the
// draw sequence New(seed) would — pinned by equivalence tests and a
// fuzz target against math/rand. Each Reseed invalidates the previous
// stream, so the returned stream must be drained before the next call;
// not safe for concurrent use.
type Reseeder struct {
	stream Stream
}

// NewReseeder returns a Reseeder with an unseeded cached generator; call
// Reseed before drawing.
func NewReseeder() *Reseeder {
	return &Reseeder{stream: Stream{r: rand.New(new(jumpSource))}}
}

// Reseed re-seeds the cached generator with seed and returns the shared
// stream, positioned exactly as New(seed) would be.
func (rs *Reseeder) Reseed(seed int64) *Stream {
	rs.stream.r.Seed(seed)
	return &rs.stream
}

// Float64 returns a uniform draw in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform draw in [0,n).
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Stream) Int63() int64 { return s.r.Int63() }

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Uniform returns a draw in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Exponential returns an exponentially distributed draw with the given
// mean (mean = 1/rate). It panics if mean <= 0.
func (s *Stream) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("rng: exponential mean %v", mean))
	}
	return s.r.ExpFloat64() * mean
}

// Normal returns a normal draw with the given mean and standard deviation.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// LogNormal returns a draw from a log-normal distribution parameterized by
// the desired mean and coefficient of variation (cv = stddev/mean) of the
// resulting distribution, which is how service-time variability is usually
// specified. It panics if mean <= 0 or cv < 0.
func (s *Stream) LogNormal(mean, cv float64) float64 {
	if mean <= 0 || cv < 0 {
		panic(fmt.Sprintf("rng: lognormal mean=%v cv=%v", mean, cv))
	}
	if cv == 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*s.r.NormFloat64())
}

// Pareto returns a draw from a Pareto distribution with the given minimum
// value and shape alpha (>0). Heavy-tailed when alpha <= 2.
func (s *Stream) Pareto(xmin, alpha float64) float64 {
	if xmin <= 0 || alpha <= 0 {
		panic(fmt.Sprintf("rng: pareto xmin=%v alpha=%v", xmin, alpha))
	}
	u := 1 - s.r.Float64() // in (0,1]
	return xmin / math.Pow(u, 1/alpha)
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool { return s.r.Float64() < p }

// Zipf draws ranks in [0, n) with Zipfian skew theta (0 = uniform; larger
// is more skewed). Used for template popularity.
type Zipf struct {
	cum []float64
	s   *Stream
}

// NewZipf precomputes the rank CDF. n must be > 0 and theta >= 0.
func NewZipf(s *Stream, n int, theta float64) *Zipf {
	if n <= 0 || theta < 0 {
		panic(fmt.Sprintf("rng: zipf n=%d theta=%v", n, theta))
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), theta)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum, s: s}
}

// Draw returns a rank in [0, n).
func (z *Zipf) Draw() int {
	u := z.s.Float64()
	return sort.SearchFloat64s(z.cum, u)
}

// WeightedChoice selects index i with probability weights[i]/sum(weights).
// It panics on an empty or non-positive-sum weight vector.
func (s *Stream) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("rng: weighted choice over empty/zero weights")
	}
	u := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1 // float round-off
}

// Empirical draws from a fixed set of values with equal probability —
// handy for replaying measured service times.
type Empirical struct {
	vals []float64
	s    *Stream
}

// NewEmpirical copies vals; it panics if vals is empty.
func NewEmpirical(s *Stream, vals []float64) *Empirical {
	if len(vals) == 0 {
		panic("rng: empirical over no values")
	}
	cp := make([]float64, len(vals))
	copy(cp, vals)
	return &Empirical{vals: cp, s: s}
}

// Draw returns one of the values uniformly at random.
func (e *Empirical) Draw() float64 { return e.vals[e.s.Intn(len(e.vals))] }
