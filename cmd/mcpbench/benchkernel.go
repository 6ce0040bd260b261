package main

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"cloudmcp/internal/core"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
)

// The kernel micro-benchmark suite: the only copy of each kernel
// hot-path benchmark body. -bench-kernel runs it through
// testing.Benchmark so a CLI invocation (or the CI perf-smoke job) can
// emit machine-readable numbers without the test harness, and
// BenchmarkKernel runs the same entries under go test -bench.

type benchEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchEnv heads every bench report: the suite and the machine it ran on.
type benchEnv struct {
	Suite     string `json:"suite"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"nproc"`
}

func newBenchEnv(suite string) benchEnv {
	return benchEnv{suite, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU()}
}

type benchReport struct {
	benchEnv
	Seed    int64        `json:"seed"`
	Results []benchEntry `json:"results"`
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

// kernelBench is one row of the kernel suite.
type kernelBench struct {
	name string
	fn   func(b *testing.B)
}

// kernelBenches returns the suite in BENCH_kernel.json row order.
func kernelBenches(seed int64) []kernelBench {
	return []kernelBench{
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
		{"kernel/heap_schedule", func(b *testing.B) {
			// Future-dated events exercise the heap rather than the
			// same-time queue: schedule a ladder, then drain.
			env := sim.NewEnv()
			fn := func() {}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env.Schedule(1+sim.Time(i%16), fn)
				if i%16 == 15 {
					env.Run(sim.Forever)
				}
			}
			env.Run(sim.Forever)
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
			done := false
			env.Go("worker", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					res.Acquire(p, 1)
					p.Sleep(1)
					res.Release(1)
				}
				done = true
			})
			b.ResetTimer()
			env.Run(sim.Forever)
			if !done {
				b.Fatal("worker did not finish")
			}
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
	rep := benchReport{benchEnv: newBenchEnv("kernel"), Seed: seed}
	for _, bb := range kernelBenches(seed) {
		e := runBench(bb.name, bb.fn)
		rep.Results = append(rep.Results, e)
		if _, err := fmt.Fprintf(w, "%-24s %12d iters %14.1f ns/op %8d B/op %6d allocs/op\n",
			e.Name, e.Iterations, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp); err != nil {
			return err
		}
	}
	return writeBenchReport(w, "bench-kernel", outPath, rep)
}
