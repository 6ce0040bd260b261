package rng

import "math/rand"

// jumpSource is a rand.Source64 that yields exactly the sequence
// rand.NewSource(seed) yields, for every seed and every draw, but whose
// Seed costs O(1) instead of math/rand's 1,821 Lehmer steps.
//
// math/rand's additive lagged-Fibonacci source (Mitchell & Reeds) seeds
// its 607-word register as
//
//	vec[i] = x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i]
//
// where x[n] = x0·48271^n mod (2^31−1) and x0 is the normalised seed.
// Every register word is therefore a closed-form function of x0, so Seed
// only records x0 and marks the register empty; a draw computes a word
// from the precomputed powers of 48271 the first time it touches it. A
// stream that draws a handful of numbers per seed (one per decision)
// touches a handful of words.
//
// On a long stream the per-draw "filled?" checks make it about twice as
// slow per draw as rand.NewSource, so only Reseeder uses it.
type jumpSource struct {
	x0        uint64
	tap, feed int
	filled    [(rngLen + 63) / 64]uint64
	vec       [rngLen]uint64
}

// Constants of math/rand's source (math/rand/rng.go).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lehmerA  = 48271
	// seedDefault replaces a seed that normalises to 0.
	seedDefault = 89482311
	// seedSkip is the number of Lehmer steps math/rand's Seed discards
	// before the first register word.
	seedSkip = 20
)

var (
	// lehmerPow[i][c] = 48271^(seedSkip+1+3i+c) mod (2^31−1): the power
	// that turns x0 into the c-th Lehmer term of register word i.
	lehmerPow [rngLen][3]uint64
	// cooked is math/rand's rngCooked table, recovered by cookedFrom.
	cooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for n := 0; n <= seedSkip; n++ {
		p = p * lehmerA % int32max
	}
	for i := range lehmerPow {
		for c := range lehmerPow[i] {
			lehmerPow[i][c] = p
			p = p * lehmerA % int32max
		}
	}
	cooked = cookedFrom(rand.NewSource(1).(rand.Source64))
}

// normSeed applies math/rand's seed normalisation.
func normSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedDefault
	}
	return uint64(seed)
}

// seedTerms returns the Lehmer part of register word i for normalised
// seed x0: vec[i] without the cooked XOR.
func seedTerms(x0 uint64, i int) uint64 {
	p := &lehmerPow[i]
	return (x0*p[0]%int32max)<<40 ^ (x0*p[1]%int32max)<<20 ^ x0*p[2]%int32max
}

// cookedFrom recovers the cooked table from the first rngLen outputs of
// src, which must be a freshly seeded math/rand source with seed 1. It
// inverts the generator's recurrence: with tap and feed starting at 0
// and rngLen−rngTap, draw k (1-based) reads words (rngLen−k) and
// (rngLen−rngTap−k) mod rngLen and overwrites the latter with the sum o_k.
//
//   - draws 274..334 add an untouched word 334−k to the word draw k−273
//     wrote, so vec[0..60] = o_k − o_{k−273};
//   - draws 335..607 do the same for word 941−k, so vec[334..606] =
//     o_k − o_{k−273};
//   - draws 1..273 add two untouched words, 334−k and 607−k, the second
//     now known, so vec[61..333] = o_k − vec[607−k].
//
// XORing out the seed-1 Lehmer terms leaves cooked.
func cookedFrom(src rand.Source64) [rngLen]uint64 {
	const feed0 = rngLen - rngTap
	var o [rngLen + 1]uint64 // o[k] is the k-th output, 1-based
	for k := 1; k <= rngLen; k++ {
		o[k] = src.Uint64()
	}
	var vec [rngLen]uint64
	for k := rngTap + 1; k <= feed0; k++ {
		vec[feed0-k] = o[k] - o[k-rngTap]
	}
	for k := feed0 + 1; k <= rngLen; k++ {
		vec[rngLen+feed0-k] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[feed0-k] = o[k] - vec[rngLen-k]
	}
	x0 := normSeed(1)
	for i := range vec {
		vec[i] ^= seedTerms(x0, i)
	}
	return vec
}

// Seed positions the source exactly where rand.NewSource(seed) starts.
func (s *jumpSource) Seed(seed int64) {
	s.x0 = normSeed(seed)
	s.tap = 0
	s.feed = rngLen - rngTap
	s.filled = [len(s.filled)]uint64{}
}

// word returns register word i, computing it on first touch.
func (s *jumpSource) word(i int) uint64 {
	if s.filled[i>>6]&(1<<(i&63)) == 0 {
		s.filled[i>>6] |= 1 << (i & 63)
		s.vec[i] = seedTerms(s.x0, i) ^ cooked[i]
	}
	return s.vec[i]
}

// Uint64 is math/rand's rngSource.Uint64 over the lazily built register.
func (s *jumpSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return x
}

// Int63 returns a non-negative 63-bit integer, as rngSource.Int63 does.
func (s *jumpSource) Int63() int64 { return int64(s.Uint64() & rngMask) }
