package rng

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Golden values: DeriveSeed's historical outputs for fixed (seed, label)
// pairs. These pin the FNV-1a derivation itself — SeedHasher and every
// cached-prefix optimization must keep reproducing exactly these seeds,
// or every artifact in the repo silently changes.
var deriveGolden = []struct {
	seed  int64
	label string
	want  int64
}{
	{42, "fault:host:1:1", 905418259443008068},
	{42, "fault:db:17:3", 2502797662279492609},
	{42, "fault:net:100:2", -1103909368913001484},
	{42, "fault:storage:-5:1", 6855313081034852700},
	{42, "retry:9:4", 8644708048418715761},
	{-7, "fault:host:0:0", -8030223693146669278},
	{1234567, "fault:db:987654321:12", -4699305703517829662},
}

func TestDeriveSeedGolden(t *testing.T) {
	for _, g := range deriveGolden {
		if got := DeriveSeed(g.seed, g.label); got != g.want {
			t.Errorf("DeriveSeed(%d, %q) = %d, want %d", g.seed, g.label, got, g.want)
		}
	}
}

// SeedHasher must reproduce DeriveSeed bit for bit when the label is
// assembled from pieces — including a prefix state cached once and
// extended many times, which is how the fault injector uses it.
func TestSeedHasherMatchesDeriveSeed(t *testing.T) {
	for _, g := range deriveGolden {
		if got := NewSeedHasher(g.seed).String(g.label).Seed(); got != g.want {
			t.Errorf("SeedHasher whole-label for (%d, %q) = %d, want %d", g.seed, g.label, got, g.want)
		}
	}
	// Piecewise assembly with a cached prefix, the hot-path shape.
	for _, seed := range []int64{0, 42, -7, 1 << 40} {
		prefix := NewSeedHasher(seed).String("fault:host:")
		for _, taskID := range []int64{0, 1, 17, -5, 987654321} {
			for _, attempt := range []int64{0, 1, 2, 12} {
				want := DeriveSeed(seed, fmt.Sprintf("fault:host:%d:%d", taskID, attempt))
				got := prefix.Int(taskID).Byte(':').Int(attempt).Seed()
				if got != want {
					t.Fatalf("cached prefix (seed=%d task=%d attempt=%d) = %d, want %d",
						seed, taskID, attempt, got, want)
				}
			}
		}
	}
}

func TestSeedHasherAllocFree(t *testing.T) {
	prefix := NewSeedHasher(42).String("fault:host:")
	allocs := testing.AllocsPerRun(100, func() {
		_ = prefix.Int(123456).Byte(':').Int(7).Seed()
	})
	if allocs != 0 {
		t.Fatalf("SeedHasher derivation allocates %.1f/op, want 0", allocs)
	}
}

// reseederSeeds returns the seeds the Reseeder equivalence test runs:
// the edges of math/rand's seed normalisation (zero, the int32max
// modulus and its neighbours, the replacement seed for zero, the int64
// extremes) plus pseudo-random seeds over the whole int64 range.
func reseederSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 42, -7,
		int32max, -int32max, int32max + 1, -int32max - 1, int32max - 1,
		2 * int32max, seedDefault, -seedDefault,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		905418259443008068,
	}
	gen := rand.New(rand.NewSource(20131103))
	for i := 0; i < 320; i++ {
		v := gen.Int63()
		if i%2 == 1 {
			v = -v
		}
		if i%5 == 0 {
			v %= 1 << 32 // magnitudes near the int32max modulus, not only far above it
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// streamOp applies the i-th step of a fixed script that cycles through
// every Stream method and returns what it drew, as float64s.
func streamOp(s *Stream, i int) []float64 {
	weights := []float64{0.5, 0, 2, 1.25}
	switch i % 11 {
	case 0:
		return []float64{s.Float64()}
	case 1:
		return []float64{float64(s.Intn(1 + i%1000))}
	case 2:
		return []float64{float64(s.Int63())}
	case 3:
		var out []float64
		for _, v := range s.Perm(i % 9) {
			out = append(out, float64(v))
		}
		return out
	case 4:
		return []float64{s.Exponential(3.5)}
	case 5:
		return []float64{s.Normal(10, 2)}
	case 6:
		return []float64{s.LogNormal(2, 1)}
	case 7:
		return []float64{s.Pareto(1, 1.5)}
	case 8:
		if s.Bernoulli(0.3) {
			return []float64{1}
		}
		return []float64{0}
	case 9:
		return []float64{float64(s.WeightedChoice(weights))}
	default:
		return []float64{s.Uniform(-1, 1)}
	}
}

// Reseeder must yield exactly the draw sequence a fresh New(seed) stream
// would, for every seed, through every Stream method, past the point
// where the register indices wrap (3×607 source draws), and after being
// re-seeded in the middle of a stream.
func TestReseederMatchesNew(t *testing.T) {
	const steps = 3*rngLen + 50
	rs := NewReseeder()
	for si, seed := range reseederSeeds() {
		// Every third seed first runs a short prefix of another stream,
		// so the Reseed below lands mid-stream on a partly built
		// register and an arbitrary tap position.
		if si%3 == 0 {
			other := rs.Reseed(seed ^ 0x5bd1e995)
			for i := 0; i < 1+si%700; i++ {
				other.Int63()
			}
		}
		fresh := New(seed)
		cached := rs.Reseed(seed)
		for i := 0; i < steps; i++ {
			if f, c := streamOp(fresh, i), streamOp(cached, i); !slices.Equal(f, c) {
				t.Fatalf("seed %d step %d: Reseeder drew %v, New drew %v", seed, i, c, f)
			}
		}
	}
}

func TestReseederAllocFree(t *testing.T) {
	rs := NewReseeder()
	allocs := testing.AllocsPerRun(100, func() {
		_ = rs.Reseed(42).Float64()
	})
	if allocs != 0 {
		t.Fatalf("Reseed+draw allocates %.1f/op, want 0", allocs)
	}
}
