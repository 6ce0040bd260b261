package main

// The three batch workloads: a simulated cloud built from the seed, run
// free (sim.Batch semantics, as fast as the host allows) to a fixed
// virtual horizon, then summarised by the same report step mcpsim uses.
// Every repetition rebuilds the cloud from scratch, so repetitions of one
// seed must agree bit for bit; that agreement is one of the output checks.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/core"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

// batchParams sizes one batch workload.
type batchParams struct {
	// config builds the cloud's configuration from the seed.
	config func(seed int64) core.Config
	// prepopulate registers this many VMs before the run starts.
	prepopulate int
	// clients > 0 runs that many closed-loop deploy→delete clients;
	// otherwise the CloudA self-service profile drives the cloud.
	clients  int
	horizonS float64
	warmupS  float64
	reps     int // untraced repetitions, each on its own seed
}

// scaledTopology de-bottlenecks the data plane the way E19 does
// (4000 MB/s datastores, hosts and datastores sized for the inventory at
// half occupancy) so the management plane is what saturates.
func scaledTopology(vms int) core.Topology {
	t := core.DefaultTopology()
	if h := (vms + 127) / 128; h > t.Hosts {
		t.Hosts = h
	}
	if d := (vms + 4999) / 5000; d > t.Datastores {
		t.Datastores = d
	}
	t.DatastoreMBps = 4000
	return t
}

// closedLoopConfig is the E19-style linked-clone closed-loop cloud sized
// for vms prepopulated VMs.
func closedLoopConfig(vms int) func(int64) core.Config {
	return func(seed int64) core.Config {
		cfg := core.DefaultConfig(seed)
		cfg.Topology = scaledTopology(vms)
		cfg.Director.FastProvisioning = true
		cfg.Director.RebalanceThreshold = 0
		cfg.Director.MaxChainLen = 1 << 20
		return cfg
	}
}

// cloudDayConfig is the default topology with every fault layer at the
// 0.1 preset and every reconcile controller on.
func cloudDayConfig(seed int64) core.Config {
	cfg := core.DefaultConfig(seed)
	fc := faults.Preset(0.1)
	cfg.Faults = &fc
	rc := reconcile.DefaultConfig()
	rc.Controllers = reconcile.ControllerNames()
	cfg.Reconcile = &rc
	return cfg
}

// simOutcome is everything a batch repetition computes that the model
// decides; it must repeat exactly for one seed.
type simOutcome struct {
	Records     int
	Errors      int
	DeploysPerH float64
	DeployP99S  float64
	ReportHash  uint64 // FNV-1a over the rendered report step
}

// builtCloud is a cloud after set-up, before its run.
type builtCloud struct {
	c      *core.Cloud
	setupS float64
	heapMB float64 // traced only: heap the prepopulated VMs hold
}

// buildBatch assembles the workload's cloud. A traced build turns the
// metrics registry on, records spans, and measures the heap the
// prepopulation adds (a full GC either side, inside the timed set-up:
// the traced set-up time is not reported).
func buildBatch(p batchParams, seed int64, traced bool, tr *tracer) (builtCloud, error) {
	cfg := p.config(seed)
	cfg.Metrics = traced
	var b builtCloud
	var err error
	t0 := time.Now()
	tr.do("setup", 0, func(id int64) {
		tr.do("setup.core_new", id, func(int64) { b.c, err = core.New(cfg) })
		if err != nil || p.prepopulate == 0 {
			return
		}
		var before float64
		if traced {
			before = liveHeapMB()
		}
		tr.do("setup.prepopulate", id, func(int64) { err = b.c.PrepopulateVMs(p.prepopulate) })
		if traced {
			b.heapMB = liveHeapMB() - before
		}
	})
	b.setupS = time.Since(t0).Seconds()
	return b, err
}

// startLoad attaches the workload's load to a freshly built cloud.
func startLoad(p batchParams, c *core.Cloud, seed int64) error {
	if p.clients == 0 {
		_, err := c.StartProfile(workload.CloudA(), p.horizonS)
		return err
	}
	inv := c.Inventory()
	dir := c.Director()
	tpl := inv.Template(inv.Templates()[0])
	stream := rng.Derive(seed, "perfbench:closed-loop")
	for i := 0; i < p.clients; i++ {
		org := fmt.Sprintf("org%d", i%8)
		c.Go(fmt.Sprintf("client%d", i), func(proc *sim.Proc) {
			for proc.Now() < p.horizonS {
				res := dir.DeployVApp(proc, org, tpl, 1, false)
				if res.Err == nil || (res.VApp != nil && inv.VApp(res.VApp.ID) != nil) {
					dir.DeleteVApp(proc, res.VApp, org)
				}
				proc.Sleep(stream.Uniform(0.1, 0.5))
			}
		})
	}
	return nil
}

// report is the report step: the op mix, latency by kind and burstiness
// mcpsim prints, plus the deploy throughput and tail over the
// post-warm-up window. Its rendered form is hashed into the outcome.
func report(p batchParams, c *core.Cloud) simOutcome {
	recs := c.Records()
	var buf bytes.Buffer
	for _, row := range analysis.OpMix(recs) {
		fmt.Fprintf(&buf, "mix %s %d %d\n", row.Kind, row.Count, row.Errors)
	}
	for _, row := range analysis.LatencyByKind(recs) {
		fmt.Fprintf(&buf, "lat %s %d %.9g %.9g %.9g\n", row.Kind, row.Count, row.MeanLatency, row.P50Latency, row.P95Latency)
	}
	burst := analysis.MeasureBurstiness(recs, 600, "")
	fmt.Fprintf(&buf, "burst %.9g %.9g\n", burst.PeakToMean, burst.IndexOfDispersion)
	h := fnv.New64a()
	h.Write(buf.Bytes())

	out := simOutcome{Records: len(recs), ReportHash: h.Sum64()}
	for i := range recs {
		if recs[i].Err != "" {
			out.Errors++
		}
	}
	ok := deployWindow(p, c)
	out.DeploysPerH = float64(len(ok)) / (p.horizonS - p.warmupS) * core.Hour
	out.DeployP99S = analysis.LatencySample(ok, "").Percentile(99)
	return out
}

// deployWindow returns the successful deploys in the post-warm-up window.
func deployWindow(p batchParams, c *core.Cloud) []trace.Record {
	recs := analysis.FilterTime(c.Records(), p.warmupS, p.horizonS)
	return analysis.FilterOK(analysis.FilterKind(recs, ops.KindDeploy.String()))
}

// repReport is one repetition's measurements. Each repetition runs in a
// child process of its own: a finished simulation leaves its process
// goroutines parked for the life of the process, and with them the whole
// cloud, so repetitions sharing a process would each inherit the heap of
// the ones before.
type repReport struct {
	SetupS     float64            `json:"setup_s"`
	SimS       float64            `json:"sim_s"` // simulated run
	RunS       float64            `json:"run_s"` // simulated run plus report step
	AllocObjs  uint64             `json:"alloc_objs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	PeakHeapMB float64            `json:"peak_heap_mb"`
	Outcome    simOutcome         `json:"outcome"`
	Layer      map[string]float64 `json:"layer,omitempty"` // traced repetition only
}

// batchRep builds the cloud from seed, runs it to the horizon and
// reports. When traced it records spans and a CPU profile, turns the
// metrics registry on, and runs the layer probes afterwards.
func batchRep(name string, p batchParams, seed int64, outDir string, traced bool) (repReport, error) {
	var r repReport
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	b, err := buildBatch(p, seed, traced, tr)
	if err == nil {
		err = startLoad(p, b.c, seed)
	}
	if err != nil {
		return r, err
	}
	// The profile covers the window ops_per_s times: the run and the
	// report step. Set-up has spans of its own.
	var prof bytes.Buffer
	if traced {
		if err := startCPUProfile(&prof); err != nil {
			return r, err
		}
	}
	before := readAllocs()
	t0 := time.Now()
	tr.do("run.sim", 0, func(int64) { b.c.Run(p.horizonS) })
	r.SimS = time.Since(t0).Seconds()
	if !traced {
		// Untimed. The simulation's state is largest at its end, and the
		// report step's buffers are transient.
		r.PeakHeapMB = liveHeapMB()
	}
	t1 := time.Now()
	tr.do("run.report", 0, func(int64) { r.Outcome = report(p, b.c) })
	r.RunS = r.SimS + time.Since(t1).Seconds()
	after := readAllocs()
	if traced {
		pprof.StopCPUProfile()
	}
	r.SetupS = b.setupS
	r.AllocObjs = after.objs - before.objs
	r.AllocBytes = after.bytes - before.bytes
	c := b.c
	if err := c.Inventory().CheckInvariants(); err != nil {
		return r, fmt.Errorf("inventory invariants after the run: %w", err)
	}
	if !traced {
		return r, nil
	}

	l := make(map[string]float64)
	r.Layer = l
	if err := addCPUShares(l, prof.Bytes()); err != nil {
		return r, err
	}
	spans := tr.finish()
	l["analysis.report_s"] = median(byName(spans, "run.report", false)) / 1000
	if p.prepopulate > 0 {
		l["inventory.prepopulate_s"] = median(byName(spans, "setup.prepopulate", false)) / 1000
		l["inventory.heap_mb"] = b.heapMB
	}
	modelMetrics(l, p, c)
	tr.do("probe.inventory.place_cycle_ns", 0, func(int64) {
		l["inventory.place_cycle_ns"], err = probePlaceCycle(c.Inventory())
	})
	if err != nil {
		return r, err
	}
	tr.do("probe.metrics.snapshot_ns", 0, func(int64) {
		l["metrics.snapshot_ns"] = probeNs(func(n int) {
			for i := 0; i < n; i++ {
				sink = c.MetricsRegistry().Snapshot(float64(c.Env().Now()))
			}
		})
	})
	if err := c.Inventory().CheckInvariants(); err != nil {
		return r, fmt.Errorf("inventory invariants after the probes: %w", err)
	}
	if err := commonProbes(l, p.config(seed), false, tr); err != nil {
		return r, err
	}
	return r, writeSpans(outDir, name, seed, tr.finish())
}

// repSeed is repetition i's seed: the workload seed itself for the first,
// then seeds derived from it, so that a run's median covers several
// instances of the workload rather than one. How much work an instance
// makes, and so how big its trace grows, varies with its seed.
func repSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return rng.DeriveSeed(seed, "perfbench:rep"+strconv.Itoa(i))
}

// runBatch runs one batch workload: p.reps untraced repetitions on the
// seeds repSeed(seed, 0..p.reps-1), then a repeat of the first seed,
// whose simulated outputs must match it exactly, then, when traced, a
// traced repetition of that seed. The seed list is fixed, so every run
// of one seed measures the same workload instances however fast the
// host is; --seconds only flags an overrun.
func runBatch(name string, p batchParams, o opts) (*runResult, error) {
	res := newRunResult()
	start := time.Now()
	var reps []repReport
	for i := 0; i < p.reps; i++ {
		r, err := spawnRep(name, repSeed(o.seed, i), o, false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	again, err := spawnRep(name, o.seed, o, false)
	if err != nil {
		return nil, err
	}
	if el := time.Since(start).Seconds(); el > o.seconds {
		fmt.Fprintf(os.Stderr, "perfbench: %s: the repetitions took %.1f s, more than --seconds %g\n", name, el, o.seconds)
	}
	first := reps[0].Outcome
	checkSame(res, first, again.Outcome, fmt.Sprintf("the repeat of seed %d", o.seed))
	var setups, runs, peaks, opsPerS, usPerOp, allocsPerOp, allocMB []float64
	for _, r := range reps {
		setups = append(setups, r.SetupS)
		runs = append(runs, r.RunS)
		peaks = append(peaks, r.PeakHeapMB)
		opsPerS = append(opsPerS, float64(r.Outcome.Records)/r.RunS)
		usPerOp = append(usPerOp, 1e6*r.SimS/float64(max(r.Outcome.Records, 1)))
		allocsPerOp = append(allocsPerOp, float64(r.AllocObjs)/float64(max(r.Outcome.Records, 1)))
		allocMB = append(allocMB, float64(r.AllocBytes)/(1<<20))
		res.attempted += int64(r.Outcome.Records)
		if r.Outcome.Records == 0 {
			res.fail("a repetition recorded no management operations")
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d repetitions, records %d (first), run s %.3f, setup s %.4f, live heap MB %.1f\n",
		name, len(reps), first.Records, runs, setups, peaks)
	res.e2e["setup_s"] = median(setups)
	res.e2e["ops_per_s"] = median(opsPerS)
	res.e2e["op_latency_us"] = median(usPerOp)
	res.e2e["peak_heap_mb"] = median(peaks)
	if !o.trace {
		return res, nil
	}

	tr, err := spawnRep(name, o.seed, o, true)
	if err != nil {
		return nil, err
	}
	checkSame(res, first, tr.Outcome, "the traced repetition")
	for k, v := range tr.Layer {
		res.layer[k] = v
	}
	l := res.layer
	tracedUs := 1e6 * tr.SimS / float64(max(tr.Outcome.Records, 1))
	l["trace_overhead_pct"] = 100 * (tracedUs - median(usPerOp)) / median(usPerOp)
	l["trace.records"] = float64(first.Records)
	l["model.task_errors"] = float64(first.Errors)
	l["allocs_per_op"] = median(allocsPerOp)
	l["alloc_mb"] = median(allocMB)
	return res, nil
}

// checkSame fails the run unless a repetition's simulated outputs equal
// the first repetition's.
func checkSame(res *runResult, first, got simOutcome, what string) {
	if got != first {
		res.fail("%s differs from the first repetition: %+v vs %+v", what, got, first)
	}
}

// spawnRep runs one repetition in a child process (this binary with
// --rep) and decodes the report it prints.
func spawnRep(name string, seed int64, o opts, traced bool) (repReport, error) {
	var r repReport
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "--rep", "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--trace", t, "--out", o.outDir, "--tiny="+strconv.FormatBool(o.tiny))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("repetition process: %w", err)
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return r, fmt.Errorf("repetition process output: %w", err)
	}
	return r, nil
}

// modelMetrics reads the virtual-time description of the modelled
// system. A change that only makes the host faster leaves every one of
// these exactly equal.
func modelMetrics(l map[string]float64, p batchParams, c *core.Cloud) {
	ok := deployWindow(p, c)
	l["model.deploys_per_h"] = float64(len(ok)) / (p.horizonS - p.warmupS) * core.Hour
	l["model.deploy_p99_s"] = analysis.LatencySample(ok, "").Percentile(99)
	if b, found := analysis.MeanBreakdown(ok, ""); found {
		l["model.deploy_queue_s"] = b.Queue
		l["model.deploy_cell_s"] = b.Cell
		l["model.deploy_mgmt_s"] = b.Mgmt
		l["model.deploy_db_s"] = b.DB
		l["model.deploy_host_s"] = b.Host
		l["model.deploy_data_s"] = b.Data
	}
	l["model.mgmt_db_util"] = c.DBUtilization()
	l["model.mgmt_retries"] = float64(c.Plane().RetryStats().Retries)
	if snap := c.MetricsSnapshot(); snap != nil {
		var wait []float64 // one admission queue per shard
		for _, r := range snap.Resources {
			if r.Layer == "mgmt" && strings.HasSuffix(r.Resource, "mgmt.admission") {
				wait = append(wait, r.MeanWaitS)
			}
		}
		l["model.mgmt_admission_wait_s"] = median(wait)
	}
	var runs int64
	for _, s := range c.ReconcileStats() {
		runs += s.Runs
	}
	l["reconcile.runs"] = float64(runs)
}
