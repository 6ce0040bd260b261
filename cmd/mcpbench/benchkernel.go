package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"cloudmcp/internal/core"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
)

// The kernel micro-benchmark suite behind -bench-kernel: the same hot
// paths the internal/sim, internal/rng and internal/faults
// BenchmarkKernel* functions cover, run through testing.Benchmark so a
// CLI invocation (or the CI perf-smoke job) can emit machine-readable
// numbers without the test harness. The emitted JSON also carries the
// recorded before/after allocation counts for the E6 closed loop on the
// commit that introduced the pooled kernel, so the reduction the change
// bought stays visible next to freshly measured numbers.

// e6Reference pins the E6 closed-loop allocation counts measured with
// `go test -bench=E6_Throughput -benchmem` at seed 1, HorizonS 900:
// the pre-optimization baseline, the first pooled-kernel pass (event
// and waiter free lists), and the second pass (lock-frame and
// lock-resource recycling in mgmt, parked process-goroutine reuse in
// sim, deploy-frame pooling in clouddir).
var e6Reference = struct {
	BaselineAllocsPerOp int64   `json:"baseline_allocs_per_op"`
	BaselineBytesPerOp  int64   `json:"baseline_bytes_per_op"`
	PooledAllocsPerOp   int64   `json:"pooled_allocs_per_op"`
	PooledBytesPerOp    int64   `json:"pooled_bytes_per_op"`
	Pooled2AllocsPerOp  int64   `json:"pooled_v2_allocs_per_op"`
	Pooled2BytesPerOp   int64   `json:"pooled_v2_bytes_per_op"`
	AllocsReductionPct  float64 `json:"allocs_reduction_pct"`
}{
	BaselineAllocsPerOp: 436711,
	BaselineBytesPerOp:  21279712,
	PooledAllocsPerOp:   156127,
	PooledBytesPerOp:    15350688,
	Pooled2AllocsPerOp:  92151,
	Pooled2BytesPerOp:   13368636,
	AllocsReductionPct:  78.9,
}

type benchEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type benchReport struct {
	Suite     string       `json:"suite"`
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	NumCPU    int          `json:"nproc"`
	Seed      int64        `json:"seed"`
	Results   []benchEntry `json:"results"`
	E6        interface{}  `json:"e6_closed_loop_reference"`
}

func runBench(name string, fn func(b *testing.B)) benchEntry {
	r := testing.Benchmark(fn)
	return benchEntry{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// kernelBenches returns the suite. Split out so a test can run it with a
// tiny iteration budget.
func kernelBenches(seed int64) []struct {
	name string
	fn   func(b *testing.B)
} {
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"kernel/schedule_fire", func(b *testing.B) {
			env := sim.NewEnv()
			fn := func() {}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env.Schedule(0, fn)
				env.Run(sim.Forever)
			}
		}},
		{"kernel/timer_stop", func(b *testing.B) {
			env := sim.NewEnv()
			fn := func() {}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tm := env.Schedule(1, fn)
				tm.Stop()
			}
		}},
		{"kernel/switch", func(b *testing.B) {
			// Two processes alternating on a queue: each op passes the
			// baton twice, once each way.
			env := sim.NewEnv()
			q := sim.NewQueue(env)
			stop := false
			env.Go("producer", func(p *sim.Proc) {
				for !stop {
					q.Put(1)
					p.Sleep(1)
				}
			})
			env.Go("consumer", func(p *sim.Proc) {
				for !stop {
					q.Get(p)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			env.Schedule(sim.Time(b.N), func() { stop = true; env.Stop() })
			env.Run(sim.Forever)
			b.StopTimer()
			stop = true
			q.Put(1)
			env.Run(sim.Forever)
		}},
		{"kernel/resource_cycle", func(b *testing.B) {
			env := sim.NewEnv()
			res := sim.NewResource(env, "r", 1)
			b.ReportAllocs()
			env.Go("worker", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					res.Acquire(p, 1)
					p.Sleep(1)
					res.Release(1)
				}
			})
			env.Run(sim.Forever)
		}},
		{"rng/reseed", func(b *testing.B) {
			// One per-decision stream: re-seed, then one draw.
			rs := rng.NewReseeder()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = rs.Reseed(seed + int64(i)).Float64()
			}
		}},
		{"faults/decide", func(b *testing.B) {
			in, err := faults.New(seed, faults.Preset(0.3))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = in.Decide(faults.LayerHost, "deploy", int64(i), 1)
			}
		}},
		{"e6/closed_loop", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunE6(core.E6Params{Seed: seed, HorizonS: 900}); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// benchKernel runs the kernel micro-benchmark suite and writes the JSON
// report to outPath ("-" for w itself). A one-line summary per benchmark
// goes to w as it completes.
func benchKernel(w io.Writer, outPath string, seed int64) error {
	rep := benchReport{
		Suite:     "kernel",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Seed:      seed,
		E6:        e6Reference,
	}
	for _, bb := range kernelBenches(seed) {
		e := runBench(bb.name, bb.fn)
		rep.Results = append(rep.Results, e)
		if _, err := fmt.Fprintf(w, "%-24s %12d iters %14.1f ns/op %8d B/op %6d allocs/op\n",
			e.Name, e.Iterations, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp); err != nil {
			return err
		}
	}
	if outPath == "-" {
		return writeBenchReport(w, rep)
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	err = writeBenchReport(f, rep)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close %s: %w", outPath, cerr)
	}
	if err == nil {
		_, err = fmt.Fprintf(w, "bench-kernel: wrote %s\n", outPath)
	}
	return err
}

func writeBenchReport(w io.Writer, rep benchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
