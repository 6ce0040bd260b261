// Command mcpsim runs one simulated self-service cloud under a workload
// profile and prints the characterization summary: operation mix, latency
// breakdowns, director activity, and control-plane resource utilization.
//
//	mcpsim -profile cloud-a -hours 24
//	mcpsim -profile cloud-b -hours 8 -set director.fastProvisioning=false  # full-clone baseline
//	mcpsim -set topology.hosts=64 -set topology.datastores=16 -set director.cells=4
//	mcpsim -shards 4 -set plane.db=per-shard            # sharded management plane
//	mcpsim -reconcile -set reconcile.intervalS=120      # always-on reconciliation
//	mcpsim -config scenarios/fault-burst.json -set plane.shards=2
//	mcpsim -config scenarios/paper-era.json -dump-config  # the effective scenario
//
// The run's configuration is the -config scenario (or the defaults),
// then each alias flag given explicitly (-seed, -shards, -policy,
// -faults, -fault-rate, -reconcile, -metrics), then each -set
// key=value in order. -set takes any key path -dump-config prints.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/core"
	"cloudmcp/internal/report"
	"cloudmcp/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcpsim:", err)
		os.Exit(1)
	}
}

// run parses args, simulates, and writes the summary to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mcpsim", flag.ExitOnError)
	var sets core.Assignments
	var (
		profileName = fs.String("profile", "cloud-a", "workload profile: cloud-a, cloud-b, classic-dc")
		hours       = fs.Float64("hours", 12, "simulated hours")
		configPath  = fs.String("config", "", "JSON scenario file (default: the built-in defaults)")
		dumpConfig  = fs.Bool("dump-config", false, "print the effective scenario JSON and exit")
		metricsOut  = fs.String("metrics-out", "", "write the metrics snapshot to this file (.json, .csv, or ASCII); implies -metrics collection")
	)
	fs.Int64("seed", 1, "master random seed (alias of -set seed=N)")
	fs.String("policy", "", "named policy set for placement/DRS/HA/retry/admission decisions (alias of -set policy=NAME; see internal/policy)")
	fs.Bool("metrics", false, "collect and print per-layer resource metrics (alias of -set metrics=true)")
	fs.Bool("faults", false, "inject control-plane faults (preset at -fault-rate) and retry with backoff")
	fs.Float64("fault-rate", 0.1, "base transient-failure probability for the fault preset (alias of -set faults.rate=R)")
	fs.Int("shards", 1, "management-server shards behind the director (alias of -set plane.shards=N)")
	fs.Bool("reconcile", false, "run the always-on reconciliation plane (drift, catalog, rebalance controllers)")
	fs.Var(&sets, "set", "key=value scenario override, applied last (repeatable; keys as printed by -dump-config)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *hours <= 0 {
		return fmt.Errorf("-hours must be > 0, got %g", *hours)
	}
	cfg, err := core.ConfigFromFlags(fs, *configPath, sets)
	if err != nil {
		return err
	}
	if *dumpConfig {
		return core.WriteConfig(stdout, cfg)
	}
	profile, err := workload.ByName(*profileName)
	if err != nil {
		return err
	}
	showMetrics := cfg.Metrics
	if *metricsOut != "" {
		cfg.Metrics = true
	}
	cloud, err := core.New(cfg)
	if err != nil {
		return err
	}
	st, err := cloud.RunProfile(profile, *hours*core.Hour)
	if err != nil {
		return err
	}
	recs := cloud.Records()

	// Buffer the summary and check the flush: a broken pipe or full disk
	// must exit non-zero, not truncate the artifact with status 0.
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "mcpsim: %s for %.1f h (fast=%v): %d vApp requests, %d ops recorded\n\n",
		profile.Name, *hours, cfg.Director.FastProvisioning, st.Arrivals, len(recs))

	mixT := report.NewTable("Operation mix", "operation", "count", "%", "errors")
	for _, row := range analysis.OpMix(recs) {
		mixT.AddRow(row.Kind, row.Count, 100*row.Frac, row.Errors)
	}
	mixT.Render(w)
	fmt.Fprintln(w)

	latT := report.NewTable("Latency by operation (successful)",
		"operation", "n", "mean s", "p50 s", "p95 s", "queue", "cell", "mgmt", "db", "host", "data", "ctl%")
	for _, row := range analysis.LatencyByKind(recs) {
		b := row.MeanBreakdown
		latT.AddRow(row.Kind, row.Count, row.MeanLatency, row.P50Latency, row.P95Latency,
			b.Queue, b.Cell, b.Mgmt, b.DB, b.Host, b.Data, 100*analysis.ControlShare(b))
	}
	latT.Render(w)
	fmt.Fprintln(w)

	burst := analysis.MeasureBurstiness(recs, 600, "")
	dirStats := cloud.Director().Stats()
	rr := cloud.Manager().Resources()
	sumT := report.NewTable("Control plane summary", "metric", "value")
	sumT.AddRow("ops per hour (mean)", float64(len(recs))/(*hours))
	sumT.AddRow("burstiness peak:mean (10 min bins)", burst.PeakToMean)
	sumT.AddRow("index of dispersion", burst.IndexOfDispersion)
	sumT.AddRow("vApps deployed", dirStats.VAppsDeployed)
	sumT.AddRow("shadow template copies", dirStats.ShadowCopies)
	sumT.AddRow("lease expiries", dirStats.LeaseExpiries)
	sumT.AddRow("rebalance passes started", dirStats.RebalanceStarts)
	sumT.AddRow("mgmt thread utilization", rr.Threads.Utilization)
	sumT.AddRow("mgmt DB utilization", rr.DB.Utilization)
	sumT.AddRow("admission mean queue", rr.Admission.MeanQueueLen)
	sumT.AddRow("task errors", cloud.Plane().TaskErrors())
	sumT.Render(w)
	fmt.Fprintln(w)

	btT := report.NewTable("Bottleneck attribution (most utilized first)", "stage", "utilization", "mean queue")
	for _, st := range cloud.BottleneckReport() {
		btT.AddRow(st.Stage, st.Utilization, st.MeanQueue)
	}
	btT.Render(w)

	if pl := cloud.Plane(); pl.ShardCount() > 1 {
		fmt.Fprintln(w)
		report.ShardTable(cloud.ShardReport()).Render(w)
		ps := pl.Stats()
		if ct := report.CrossShardTable(ps.CrossOps, pl.TasksCompleted(), ps.CoordS); ct != nil {
			fmt.Fprintln(w)
			ct.Render(w)
		}
	}

	if cfg.Faults != nil {
		fmt.Fprintln(w)
		rs := cloud.Plane().RetryStats()
		rtT := report.NewTable(fmt.Sprintf("Fault injection (rate %.2f) and retries", cfg.Faults.Host.FailProb), "metric", "value")
		rtT.AddRow("attempts", rs.Attempts)
		rtT.AddRow("injected faults", rs.Faults)
		rtT.AddRow("retries", rs.Retries)
		rtT.AddRow("give-ups (attempts exhausted)", rs.GiveUps)
		rtT.AddRow("give-ups (deadline)", rs.Deadline)
		rtT.Render(w)
		if gt := report.GoodputTable(cloud.GoodputReport()); gt != nil {
			fmt.Fprintln(w)
			gt.Render(w)
		}
	}

	if rt := report.ReconcileTable(cloud.ReconcileReport()); rt != nil {
		fmt.Fprintln(w)
		rt.Render(w)
	}

	if snap := cloud.MetricsSnapshot(); snap != nil {
		if showMetrics {
			fmt.Fprintln(w)
			snap.WriteASCII(w)
			fmt.Fprintln(w)
			report.BottleneckTable(snap, 10).Render(w)
		}
		if *metricsOut != "" {
			if err := snap.WriteFile(*metricsOut); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write stdout: %w", err)
	}
	if err := cloud.Inventory().CheckInvariants(); err != nil {
		return fmt.Errorf("post-run invariant check failed: %w", err)
	}
	return nil
}
