// Command mcpreplay replays a recorded management trace (from cmd/mcpgen)
// against an alternative cloud configuration — the what-if analysis the
// characterization methodology enables. The replay is open-loop: requests
// fire at their recorded times, so an under-provisioned control plane
// shows up as queueing and latency, exactly as it would have in
// production.
//
//	mcpreplay -set director.cells=1 -set director.cellThreads=2 trace.jsonl
//	mcpreplay -set director.fastProvisioning=false -set topology.hosts=16 trace.csv
//
// The replay cloud is the default configuration with -seed, then each
// -set key=value in order; -set takes any key path that
// mcpsim -dump-config prints.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/core"
	"cloudmcp/internal/report"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

func main() {
	var sets core.Assignments
	flag.Int64("seed", 1, "master random seed (alias of -set seed=N)")
	extraS := flag.Float64("drain", 3600, "extra seconds after the last record to drain in-flight work")
	flag.Var(&sets, "set", "key=value scenario override (repeatable; keys as printed by mcpsim -dump-config)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mcpreplay [flags] <trace.jsonl|trace.csv>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	var recs []trace.Record
	if strings.HasSuffix(path, ".csv") {
		recs, err = trace.ReadCSV(f)
	} else {
		recs, err = trace.ReadJSONL(f)
	}
	if err != nil {
		fatal(err)
	}

	cfg, err := core.ConfigFromFlags(flag.CommandLine, "", sets)
	if err != nil {
		fatal(err)
	}
	cloud, err := core.New(cfg)
	if err != nil {
		fatal(err)
	}
	rp, err := workload.NewReplayer(cloud.Env(), cloud.Director(), recs)
	if err != nil {
		fatal(err)
	}
	rp.Start()
	last := 0.0
	for _, r := range recs {
		if r.Submit > last {
			last = r.Submit
		}
	}
	cloud.Run(last + *extraS)

	st := rp.Stats()
	fmt.Printf("mcpreplay: %s — %d records; issued %d, unmapped %d, system %d\n\n",
		path, len(recs), st.Issued, st.Unmapped, st.SystemOps)

	out := cloud.Records()
	latT := report.NewTable("Replayed latency by operation (successful)",
		"operation", "n", "mean s", "p50 s", "p95 s", "queue", "cell", "mgmt", "db", "host", "data")
	for _, row := range analysis.LatencyByKind(out) {
		b := row.MeanBreakdown
		latT.AddRow(row.Kind, row.Count, row.MeanLatency, row.P50Latency, row.P95Latency,
			b.Queue, b.Cell, b.Mgmt, b.DB, b.Host, b.Data)
	}
	render(latT)

	// Compare against what the original trace experienced.
	fmt.Println()
	cmpT := report.NewTable("Deploy latency: recorded vs replayed", "trace", "n", "mean s", "p95 s")
	orig := analysis.LatencySample(analysis.FilterKind(recs, "deploy"), "")
	repl := analysis.LatencySample(analysis.FilterKind(out, "deploy"), "")
	cmpT.AddRow("recorded", orig.Count(), orig.Mean(), orig.Percentile(95))
	cmpT.AddRow("replayed", repl.Count(), repl.Mean(), repl.Percentile(95))
	render(cmpT)
}

// render writes a table or series to stdout, failing loudly instead of
// letting a broken pipe or full disk truncate the artifact with exit
// status 0.
func render(t interface{ Render(w io.Writer) error }) {
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcpreplay:", err)
	os.Exit(1)
}
