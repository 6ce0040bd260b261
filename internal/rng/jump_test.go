package rng

import (
	"math"
	"math/rand"
	"testing"
)

// The recovered table must be math/rand's rngCooked: spot-check its ends
// against the literal in math/rand/rng.go.
func TestCookedTableEnds(t *testing.T) {
	for _, c := range []struct {
		i    int
		want int64
	}{
		{0, -4181792142133755926},
		{1, -4576982950128230565},
		{rngLen - 2, 9103922860780351547},
		{rngLen - 1, 4152330101494654406},
	} {
		if got := int64(cooked[c.i]); got != c.want {
			t.Errorf("cooked[%d] = %d, want %d", c.i, got, c.want)
		}
	}
}

// A register built eagerly from the recovered table must reproduce
// rand.NewSource(s) for seeds other than the one it was recovered from.
func TestCookedTableReproducesNewSource(t *testing.T) {
	for _, seed := range []int64{0, 2, -3, 1 << 40, seedDefault, math.MinInt64} {
		x0 := normSeed(seed)
		var vec [rngLen]uint64
		for i := range vec {
			vec[i] = seedTerms(x0, i) ^ cooked[i]
		}
		ref := rand.NewSource(seed).(rand.Source64)
		tap, feed := 0, rngLen-rngTap
		for k := 0; k < 2*rngLen; k++ {
			tap = (tap + rngLen - 1) % rngLen
			feed = (feed + rngLen - 1) % rngLen
			vec[feed] += vec[tap]
			if want := ref.Uint64(); vec[feed] != want {
				t.Fatalf("seed %d draw %d: register gives %d, rand.NewSource %d", seed, k+1, vec[feed], want)
			}
		}
	}
}

// Literal draws computed with the math/rand-backed Reseeder at commit
// b66c39b. They fail if jumpSource and the reference drift together
// (say, a change to both sides of the equivalence tests).
func TestReseederPinnedDraws(t *testing.T) {
	pins := []struct {
		seed        int64
		first       int64   // Int63
		second      float64 // Float64
		after1000th int64   // Int63 after 1,000 further Int63 draws
	}{
		{0, 8717895732742165505, 0.24496508529377975, 458733900367560165},
		{1, 5577006791947779410, 0.9405090880450124, 2737229745535687717},
		{-1, 3644962268338389676, 0.05964969860952545, 6484224755767862227},
		{42, 3440579354231278675, 0.06600049679351791, 6948028009713547519},
		{math.MinInt64, 7681445645332086223, 0.7347809470961395, 4335625674786377924},
		{math.MaxInt64, 5577006791947779410, 0.9405090880450124, 2737229745535687717},
		{905418259443008068, 1394065183884155382, 0.6102976072881806, 7640090109084481049},
	}
	rs := NewReseeder()
	for _, p := range pins {
		s := rs.Reseed(p.seed)
		if got := s.Int63(); got != p.first {
			t.Errorf("seed %d: first Int63 = %d, want %d", p.seed, got, p.first)
		}
		if got := s.Float64(); got != p.second {
			t.Errorf("seed %d: Float64 = %v, want %v", p.seed, got, p.second)
		}
		for i := 0; i < 1000; i++ {
			s.Int63()
		}
		if got := s.Int63(); got != p.after1000th {
			t.Errorf("seed %d: Int63 after 1000 = %d, want %d", p.seed, got, p.after1000th)
		}
	}
}

// FuzzReseederMatchesNew compares a Reseeder, shared across inputs so
// each Reseed lands mid-stream, against rand.New(rand.NewSource(seed))
// for n draws.
func FuzzReseederMatchesNew(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, int32max, int32max + 1, seedDefault, math.MinInt64, math.MaxInt64} {
		f.Add(seed, uint16(3*rngLen))
	}
	rs := NewReseeder()
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		ref := rand.New(rand.NewSource(seed))
		s := rs.Reseed(seed)
		for i := 0; i < int(n); i++ {
			var got, want float64
			switch i % 5 {
			case 0:
				got, want = float64(s.Int63()), float64(ref.Int63())
			case 1:
				got, want = s.Float64(), ref.Float64()
			case 2:
				got, want = float64(s.Intn(1+i)), float64(ref.Intn(1+i))
			case 3:
				got, want = s.Normal(0, 1), ref.NormFloat64()
			default:
				got, want = s.Exponential(1), ref.ExpFloat64()
			}
			if got != want {
				t.Fatalf("seed %d draw %d: Reseeder %v, rand.New %v", seed, i, got, want)
			}
		}
	})
}
