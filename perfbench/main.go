// Command perfbench is cloudmcp's benchmark: it runs one named workload
// against the repository's public Go API, checks the outputs, and prints
// one JSON result as the last line of standard output.
//
//	perfbench --workload closed_loop --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing at all; with --trace 1 it carries the per-layer metrics of a
// separate traced pass (spans around calls into each layer, a CPU profile
// split by package, and per-layer probes). Spans are written to
// .bench_build/spans-<workload>-seed<n>.json. README.md lists every
// metric, the layer metric to end-to-end metric map, and the held-out
// seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// opts are the command-line inputs every workload receives.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // where a traced run writes its spans
	tiny    bool   // the self-test's sizes: every workload shrunk
}

// batchWorkloads size the three batch workloads, full or tiny.
var batchWorkloads = map[string]func(tiny bool) batchParams{
	"closed_loop":  closedLoopParams,
	"cloud_day":    cloudDayParams,
	"inventory_1m": inventoryParams,
}

// runWorkload runs one named workload.
func runWorkload(name string, o opts) (*runResult, error) {
	var rr *runResult
	var err error
	if params, ok := batchWorkloads[name]; ok {
		rr, err = runBatch(name, params(o.tiny), o)
	} else if name == "serve_mixed" {
		rr, err = runServe(o)
	} else {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return rr, nil
}

// Each batch workload runs a fixed number of repetitions, sized so that
// they fit in 30 host seconds on a 2-CPU host; the self-test runs
// three of each.

func closedLoopParams(tiny bool) batchParams {
	if tiny {
		return batchParams{config: closedLoopConfig(100), prepopulate: 100, clients: 8, horizonS: 600, warmupS: 60, reps: 3}
	}
	return batchParams{config: closedLoopConfig(1000), prepopulate: 1000, clients: 64, horizonS: 2 * 3600, warmupS: 720, reps: 15}
}

func cloudDayParams(tiny bool) batchParams {
	if tiny {
		return batchParams{config: cloudDayConfig, horizonS: 1800, reps: 3}
	}
	return batchParams{config: cloudDayConfig, horizonS: 24 * 3600, reps: 5}
}

func inventoryParams(tiny bool) batchParams {
	if tiny {
		return batchParams{config: closedLoopConfig(2000), prepopulate: 2000, clients: 8, horizonS: 600, warmupS: 60, reps: 3}
	}
	return batchParams{config: closedLoopConfig(1000000), prepopulate: 1000000, clients: 64, horizonS: 2 * 3600, warmupS: 720, reps: 3}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runResult is what a workload hands back before formatting.
type runResult struct {
	problems  []string // failed output checks
	attempted int64
	failed    int64
	e2e       map[string]float64
	layer     map[string]float64
}

func newRunResult() *runResult {
	return &runResult{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// fail records a failed output check; the run is then not correct.
func (r *runResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// cpuBuckets are the profile buckets reported as <bucket>.cpu_pct.
var cpuBuckets = []string{
	"sim", "mgmt", "mgmtdb", "plane", "clouddir", "hostsim", "storage", "inventory",
	"rng", "faults", "reconcile", "workload", "api", "core", "nethttp", "json", "gc",
}

// addCPUShares turns a CPU profile into the per-bucket percentages.
func addCPUShares(l map[string]float64, profile []byte) error {
	shares, samples, err := cpuShares(profile)
	if err != nil {
		return err
	}
	for _, b := range cpuBuckets {
		l[b+".cpu_pct"] = shares[b]
	}
	l["profile.samples"] = float64(samples)
	return nil
}

// run executes one workload and formats its result. Every metric the
// catalog names for the mode is present; a layer a workload does not
// exercise reads 0.
func run(name string, o opts) (*result, error) {
	rr, err := runWorkload(name, o)
	if err != nil {
		return nil, err
	}
	for _, p := range rr.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %s\n", name, p)
	}
	failRatio := 0.0
	if rr.attempted > 0 {
		failRatio = float64(rr.failed) / float64(rr.attempted)
	}
	rr.layer["fail_ratio"] = failRatio
	rr.layer["ops.attempted"] = float64(rr.attempted)
	rr.layer["ops.failed"] = float64(rr.failed)
	res := &result{Correct: len(rr.problems) == 0, Attempted: rr.attempted, Failed: rr.failed, Metrics: make(map[string]metric)}
	values, catalog := rr.e2e, endToEnd
	if o.trace {
		values, catalog = rr.layer, perLayer
	}
	for _, m := range catalog {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return res, nil
}

func workloadNames() []string {
	names := []string{"serve_mixed"}
	for n := range batchWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "host seconds to measure")
	trace := flag.Int("trace", 0, "1 = traced pass reporting per-layer metrics, 0 = end-to-end metrics")
	outDir := flag.String("out", ".bench_build", "directory for a traced run's spans")
	tiny := flag.Bool("tiny", false, "shrink every workload to the self-test's size")
	rep := flag.Bool("rep", false, "internal: run one repetition (serve_mixed: one boot) and print its report")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, tiny: *tiny}
	if *rep {
		var r repReport
		var err error
		if params, ok := batchWorkloads[*name]; ok {
			r, err = batchRep(*name, params(o.tiny), o.seed, o.outDir, o.trace)
		} else if *name == "serve_mixed" {
			r, err = serveBootRep(serveParamsFor(o.seconds, o.tiny), o.seed)
		} else {
			err = fmt.Errorf("unknown workload %q", *name)
		}
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(r)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(*name, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
