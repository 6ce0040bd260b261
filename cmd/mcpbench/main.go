// Command mcpbench runs the full experiment suite (E1..E16, the
// reconstructed paper tables/figures plus the extensions) and prints
// every artifact. Experiments and their internal parameter sweeps run in
// parallel across -workers cores; output is byte-identical for any
// worker count at a fixed seed. The extension experiments E17..E22 are
// opt-in via -only and never change the default artifact; a custom
// extension grid (other fault rates, shard counts, or resync intervals)
// is an mcpsweep -vary run over the matching scenario keys.
//
//	mcpbench                 # full-scale horizons (minutes of wall time)
//	mcpbench -quick          # CI-scale horizons (seconds)
//	mcpbench -seed 7         # different random universe
//	mcpbench -only E6        # one experiment (E1..E22)
//	mcpbench -only E17       # goodput under injected faults, default rate grid
//	mcpbench -only E22       # serving-surface load grid (wall-clock, see internal/api)
//	mcpbench -workers 1      # serial execution (same output, more wall time)
//	mcpbench -progress       # completion ticks on stderr
//	mcpbench -metrics        # instrumented probe at the E6 crossover point
//	mcpbench -scale 1000000  # E19 ladder, inventories {1e3, 1e4, 1e5, 1e6}
//
// Performance instrumentation (reproducible-profiling hooks):
//
//	mcpbench -quick -cpuprofile cpu.pprof   # CPU profile of the run
//	mcpbench -quick -memprofile mem.pprof   # heap profile at exit
//	mcpbench -bench-kernel BENCH_kernel.json # kernel micro-benchmarks
//	mcpbench -bench-inventory BENCH_inventory.json # placement-cost ladder
//
// -bench-kernel, -bench-inventory, -scale, -metrics (or -metrics-out)
// and -only each select a different run; giving two is an error, except
// that -scale sets the top rung of the -bench-inventory ladder.
//
// All stdout writes are buffered and the final flush is checked, so a
// full disk or closed pipe exits non-zero instead of silently truncating
// an artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cloudmcp/internal/api"
	"cloudmcp/internal/core"
	"cloudmcp/internal/report"
)

func main() {
	// E22 (the serving-surface load grid) lives above core in the import
	// graph, so it registers itself with the experiment registry here.
	api.RegisterE22()
	seed := flag.Int64("seed", 1, "master random seed")
	quick := flag.Bool("quick", false, "run shortened horizons")
	only := flag.String("only", "", "run a single experiment (E1..E22)")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", false, "print per-experiment completion to stderr")
	showMetrics := flag.Bool("metrics", false, "run an instrumented closed-loop probe at the E6 crossover and print per-layer metrics")
	metricsOut := flag.String("metrics-out", "", "write the probe's metrics snapshot to this file (.json, .csv, or ASCII)")
	scaleTo := flag.Int("scale", 0, "run E19: inventory scale ladder, sweeping prepopulated-VM counts in powers of ten up to this size (0 = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	benchOut := flag.String("bench-kernel", "", "run the kernel micro-benchmark suite and write BENCH_kernel-style JSON to this file instead of the experiment suite")
	benchInvOut := flag.String("bench-inventory", "", "run the inventory placement-cost ladder and write BENCH_inventory-style JSON to this file instead of the experiment suite (rungs follow -scale, default up to 1e6)")
	flag.Parse()
	o := options{
		seed: *seed, quick: *quick, only: *only, workers: *workers,
		progress: *progress, showMetrics: *showMetrics, metricsOut: *metricsOut,
		scaleTo: *scaleTo, benchOut: *benchOut, benchInvOut: *benchInvOut,
	}

	// Reject inconsistent flag values up front with a clear message and
	// a non-zero exit instead of clamping or panicking mid-suite.
	if err := validateScaleFlag(o.scaleTo, o.benchInvOut); err != nil {
		fatal(err)
	}
	if o.workers < 0 {
		fatal(fmt.Errorf("-workers must be >= 0, got %d", o.workers))
	}
	if err := checkModes(o); err != nil {
		fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(fmt.Errorf("close %s: %w", *cpuProfile, err))
			}
		}()
	}

	// Everything destined for stdout goes through one buffered writer
	// whose errors are sticky; the checked Flush below is what turns a
	// write failure anywhere in the run into a non-zero exit.
	out := bufio.NewWriter(os.Stdout)
	err := run(out, o)
	if ferr := out.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("write stdout: %w", ferr)
	}
	if err == nil && *memProfile != "" {
		err = writeHeapProfile(*memProfile)
	}
	if err != nil {
		fatal(err)
	}
}

type options struct {
	seed        int64
	quick       bool
	only        string
	workers     int
	progress    bool
	showMetrics bool
	metricsOut  string
	scaleTo     int
	benchOut    string
	benchInvOut string
}

// checkModes rejects a command line that selects more than one run:
// run would silently take the first. -scale alongside -bench-inventory
// is not a second run; it sets the bench ladder's top rung.
func checkModes(o options) error {
	metricsFlag := "-metrics"
	if !o.showMetrics {
		metricsFlag = "-metrics-out"
	}
	modes := []struct {
		flag string
		on   bool
	}{
		{"-bench-kernel", o.benchOut != ""},
		{"-bench-inventory", o.benchInvOut != ""},
		{"-scale", o.scaleTo > 0 && o.benchInvOut == ""},
		{metricsFlag, o.showMetrics || o.metricsOut != ""},
		{"-only", o.only != ""},
	}
	first := ""
	for _, m := range modes {
		if !m.on {
			continue
		}
		if first != "" {
			return fmt.Errorf("%s and %s select different runs; pick one", first, m.flag)
		}
		first = m.flag
	}
	return nil
}

// run dispatches to the selected bench, writing every artifact to w.
func run(w io.Writer, o options) error {
	switch {
	case o.benchOut != "":
		return benchKernel(w, o.benchOut, o.seed)
	case o.benchInvOut != "":
		max := o.scaleTo
		if max == 0 {
			max = 1000000
		}
		return benchInventory(w, o.benchInvOut, max)
	case o.scaleTo > 0:
		return scaleBench(w, o.seed, o.quick, o.workers, o.scaleTo)
	case o.showMetrics || o.metricsOut != "":
		return metricsProbe(w, o.seed, o.quick, o.metricsOut)
	case o.only != "":
		res, err := core.RunExperiment(o.only, o.seed, o.quick, o.workers)
		if err != nil {
			return err
		}
		return res.Render(w)
	}
	opts := core.RunAllOptions{Workers: o.workers}
	if o.progress {
		opts.Progress = func(done, total int, elapsed time.Duration) {
			fmt.Fprintf(os.Stderr, "mcpbench: %d/%d experiments done (%.1fs)\n",
				done, total, elapsed.Seconds())
		}
	}
	return core.RunAllWith(w, o.seed, o.quick, opts)
}

// writeHeapProfile forces a GC so the profile reflects live objects, then
// writes the heap profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close %s: %w", path, cerr)
	}
	return err
}

// writeBenchReport encodes rep as indented JSON to outPath ("-" for w
// itself). A file write names itself on w as "<flag>: wrote <path>";
// a failed write or Close is returned, so a full disk exits non-zero.
func writeBenchReport(w io.Writer, flagName, outPath string, rep any) error {
	dst := w
	var f *os.File
	if outPath != "-" {
		var err error
		if f, err = os.Create(outPath); err != nil {
			return err
		}
		dst = f
	}
	enc := json.NewEncoder(dst)
	enc.SetIndent("", "  ")
	err := enc.Encode(rep)
	if f == nil {
		return err
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close %s: %w", outPath, cerr)
	}
	if err == nil {
		_, err = fmt.Fprintf(w, "%s: wrote %s\n", flagName, outPath)
	}
	return err
}

// scaleBench runs E19 — closed-loop provisioning throughput, p99
// latency, and DB utilization versus prepopulated-inventory size under
// the default and group-commit database modes. max bounds the ladder:
// rungs are the powers of ten from 1e3 up to max, plus max itself when
// it is not a power of ten (so -scale 1000000 climbs {1e3, 1e4, 1e5,
// 1e6}).
func scaleBench(w io.Writer, seed int64, quick bool, workers, max int) error {
	scale := 1.0
	if quick {
		scale = 0.1
	}
	res, err := core.RunE19(core.E19Params{
		Seed: seed, Sizes: ladder(max), HorizonS: 1800 * scale, Workers: workers,
	})
	if err != nil {
		return err
	}
	return res.Render(w)
}

// validateScaleFlag checks -scale, which shapes either the E19 ladder
// or, combined with -bench-inventory, the wall-clock bench ladder; alone
// it must be a plausible inventory size.
func validateScaleFlag(scaleTo int, benchInvOut string) error {
	if scaleTo < 0 {
		return fmt.Errorf("-scale must be >= 0, got %d", scaleTo)
	}
	if scaleTo > 0 && scaleTo < 1000 && benchInvOut == "" {
		return fmt.Errorf("-scale below the smallest ladder rung (1000), got %d", scaleTo)
	}
	return nil
}

// metricsProbe reruns the linked-clone closed loop at the concurrency
// where E6's throughput curve flattens (64 workers at default scale) with
// the per-layer metrics registry enabled, and prints which resource is
// saturating there. Metrics are pull-based, so the probe's numbers match
// an uninstrumented run of the same configuration exactly.
func metricsProbe(w io.Writer, seed int64, quick bool, outPath string) error {
	cfg := core.DefaultConfig(seed)
	cfg.Director.FastProvisioning = true
	cfg.Director.RebalanceThreshold = 0 // isolate provisioning, as E6 does
	cfg.Metrics = true
	clients, horizon := 64, 30*60.0
	if quick {
		horizon = 5 * 60.0
	}
	warmup := horizon / 10
	res, err := core.RunClosedLoop(cfg, clients, horizon, warmup)
	if err != nil {
		return err
	}
	return probeReport(w, res, clients, horizon, outPath)
}

// probeReport renders the probe's summary, metrics tables, and optional
// snapshot file. Every write error is propagated so a broken pipe or
// full disk exits non-zero.
func probeReport(w io.Writer, res core.ClosedLoopResult, clients int, horizon float64, outPath string) error {
	if _, err := fmt.Fprintf(w, "metrics probe: linked clones, %d closed-loop workers, %.0f min horizon\n", clients, horizon/60); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "deploys/hour %.1f  mean latency %.2fs  p95 %.2fs  errors %d\n\n",
		res.DeploysPerHour, res.MeanLatencyS, res.P95LatencyS, res.Errors); err != nil {
		return err
	}
	if err := res.Metrics.WriteASCII(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if err := report.BottleneckTable(res.Metrics, 10).Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nsaturating resource: %s\n", report.Bottleneck(res.Metrics)); err != nil {
		return err
	}
	if outPath != "" {
		return res.Metrics.WriteFile(outPath)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcpbench:", err)
	os.Exit(1)
}
