// Command mcpsweep runs an arbitrary what-if parameter grid — the
// generalization of the hardcoded E6/E10/E11 sweeps. It loads a base
// configuration (a scenarios/*.json file, or the defaults), varies one
// or more scenario keys over a grid, runs the closed-loop provisioning
// workload at every grid point in parallel through internal/sweep, and
// emits one result row per point as an ASCII table or CSV. Output is
// byte-identical for any -workers value at a fixed seed.
//
//	mcpsweep -vary director.cells=1,2,4,8 -vary concurrency=16,64
//	mcpsweep -config scenarios/paper-era.json -vary mgmt.dbConns=1,2,4 -format csv
//	mcpsweep -vary mgmt.granularity=coarse,host,entity -horizon 1200
//	mcpsweep -policy default,binpack,spread -vary topology.hosts=16,64
//	mcpsweep -vary plane.shards=1,2,4 -vary faults.rate=0,0.1
//
// -vary takes any key path that mcpsim -dump-config prints, plus
// concurrency (the closed-loop client count). Each value goes through
// the same key table as a scenario file and mcpsim -set: it is JSON, or
// a bare string when it does not parse as JSON, and commas inside
// brackets or quotes do not split values
// (-vary 'reconcile.controllers=["drift"],["drift","catalog"]').
//
// -policy a,b,c races whole policy sets (see internal/policy) as the
// slowest-varying grid dimension and appends a tournament ranking table
// ordered by mean normalized deploys/hour; rankings are byte-identical
// for any -workers value.
//
// Grid order is row-major over the -vary flags in command-line order
// (the first flag varies slowest). By default every point runs the same
// master seed so configurations are compared under identical workload
// randomness; -point-seeds gives each point its own seed derived from
// the master seed and point index instead.
package main

import (
	"bufio"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"cloudmcp/internal/core"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sweep"
)

// varySpec is one -vary flag: a scenario key (or "concurrency") and
// its value list.
type varySpec struct {
	key    string
	values []string
}

// apply sets one grid value: concurrency goes to the client count, any
// other key through Config.Set.
func (s varySpec) apply(cfg *core.Config, clients *int, val string) error {
	if s.key != "concurrency" {
		return cfg.Set(s.key, val)
	}
	n, err := strconv.Atoi(val)
	if err != nil || n <= 0 {
		return fmt.Errorf("concurrency=%q: want a positive integer", val)
	}
	*clients = n
	return nil
}

// check applies every value to a scratch config so a typo fails before
// hours of simulation.
func (s varySpec) check() error {
	for _, val := range s.values {
		scratch, clients := core.DefaultConfig(1), 1
		if err := s.apply(&scratch, &clients, val); err != nil {
			return fmt.Errorf("-vary %s=%s: %w", s.key, val, err)
		}
	}
	return nil
}

// splitValues splits a -vary value list at the commas outside JSON
// brackets and strings.
func splitValues(list string) []string {
	var vals []string
	depth, inStr, start := 0, false, 0
	for i := 0; i < len(list); i++ {
		switch c := list[i]; {
		case inStr && c == '\\':
			i++
		case c == '"':
			inStr = !inStr
		case inStr:
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ',' && depth == 0:
			vals = append(vals, list[start:i])
			start = i + 1
		}
	}
	return append(vals, list[start:])
}

// varyFlag accumulates repeated -vary flags in command-line order.
type varyFlag struct{ specs []varySpec }

func (v *varyFlag) String() string {
	var parts []string
	for _, s := range v.specs {
		parts = append(parts, s.key+"="+strings.Join(s.values, ","))
	}
	return strings.Join(parts, " ")
}

func (v *varyFlag) Set(s string) error {
	key, vals, ok := strings.Cut(s, "=")
	if !ok || vals == "" {
		return fmt.Errorf("want key=v1,v2,... got %q", s)
	}
	for _, prev := range v.specs {
		if prev.key == key {
			return fmt.Errorf("key %q varied twice; give all its values in one -vary", key)
		}
	}
	spec := varySpec{key: key, values: splitValues(vals)}
	if err := spec.check(); err != nil {
		return err
	}
	v.specs = append(v.specs, spec)
	return nil
}

// row is one grid point's rendered result.
type row struct {
	values []string // one per varied key
	res    core.ClosedLoopResult
}

func main() {
	var vary varyFlag
	flag.Var(&vary, "vary", "key=v1,v2,... grid dimension (repeatable); keys: any printed by mcpsim -dump-config, plus concurrency")
	policyList := flag.String("policy", "",
		"comma-separated policy sets to race as a tournament (known: "+strings.Join(policy.Names(), ", ")+")")
	configPath := flag.String("config", "", "JSON scenario file for the base configuration")
	seed := flag.Int64("seed", 1, "master random seed (overrides the scenario's)")
	concurrency := flag.Int("concurrency", 32, "closed-loop deploy clients (unless varied)")
	horizon := flag.Float64("horizon", 600, "simulated seconds per grid point")
	warmup := flag.Float64("warmup", 0, "warmup seconds excluded from measurement (0 = horizon/10)")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	format := flag.String("format", "ascii", "output format: ascii or csv")
	pointSeeds := flag.Bool("point-seeds", false, "derive an independent seed per grid point instead of sharing the master seed")
	progress := flag.Bool("progress", false, "print per-point completion to stderr")
	flag.Parse()

	// -policy a,b,c is sugar for a slowest-varying policy dimension plus
	// a ranking table over the rest of the grid.
	var tournament []string
	if *policyList != "" {
		for _, prev := range vary.specs {
			if prev.key == "policy" {
				fatal(fmt.Errorf("use either -policy or -vary policy=..., not both"))
			}
		}
		tournament = strings.Split(*policyList, ",")
		spec := varySpec{key: "policy", values: tournament}
		if err := spec.check(); err != nil {
			fatal(err)
		}
		vary.specs = append([]varySpec{spec}, vary.specs...)
	}
	if len(vary.specs) == 0 {
		fatal(fmt.Errorf("nothing to sweep: pass at least one -vary key=v1,v2,..."))
	}
	if *format != "ascii" && *format != "csv" {
		fatal(fmt.Errorf("unknown format %q (want ascii or csv)", *format))
	}
	if *warmup == 0 {
		*warmup = *horizon / 10
	}
	if *warmup >= *horizon {
		fatal(fmt.Errorf("warmup %.0fs must be below the horizon %.0fs", *warmup, *horizon))
	}

	base := core.DefaultConfig(*seed)
	if *configPath != "" {
		var err error
		if base, err = core.LoadConfigFile(*configPath); err != nil {
			fatal(err)
		}
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "seed" {
				base.Seed = *seed
			}
		})
	}

	// Row-major grid: the first -vary flag varies slowest.
	total := 1
	for _, s := range vary.specs {
		total *= len(s.values)
	}
	assign := func(index int) []string {
		vals := make([]string, len(vary.specs))
		for i := len(vary.specs) - 1; i >= 0; i-- {
			n := len(vary.specs[i].values)
			vals[i] = vary.specs[i].values[index%n]
			index /= n
		}
		return vals
	}

	opts := sweep.Options{MasterSeed: base.Seed, Workers: *workers}
	if *progress {
		opts.OnProgress = func(p sweep.Progress) {
			fmt.Fprintf(os.Stderr, "mcpsweep: %d/%d points done (%.1fs)\n",
				p.Done, p.Total, p.Elapsed.Seconds())
		}
	}
	start := time.Now()
	rows, err := sweep.Run(opts, total, func(pt sweep.Point) (row, error) {
		cfg := base // per-point copy; Config.Set never writes through a shared pointer
		if *pointSeeds {
			cfg.Seed = pt.Seed
		}
		clients := *concurrency
		vals := assign(pt.Index)
		for i, s := range vary.specs {
			if err := s.apply(&cfg, &clients, vals[i]); err != nil {
				return row{}, err
			}
		}
		res, err := core.RunClosedLoop(cfg, clients, *horizon, *warmup)
		return row{values: vals, res: res}, err
	})
	if err != nil {
		fatal(err)
	}

	headers := make([]string, 0, len(vary.specs)+4)
	for _, s := range vary.specs {
		headers = append(headers, s.key)
	}
	headers = append(headers, "deploys/h", "mean lat s", "p95 lat s", "errors")
	title := fmt.Sprintf("mcpsweep: %d-point grid, %.0fs horizon, seed %d",
		total, *horizon, base.Seed)
	// Buffer stdout and check the flush: a full disk or closed pipe must
	// exit non-zero, not silently truncate the grid.
	out := bufio.NewWriter(os.Stdout)
	err = renderRows(out, *format, title, headers, rows)
	if err == nil && len(tournament) > 0 && *format == "ascii" {
		rt := report.PolicyTable(
			"policy tournament: ranking by mean normalized deploys/h", rankPolicies(tournament, rows))
		if rt != nil {
			fmt.Fprintln(out)
			err = rt.Render(out)
		}
	}
	if ferr := out.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("write stdout: %w", ferr)
	}
	if err != nil {
		fatal(err)
	}
	if *progress {
		fmt.Fprintf(os.Stderr, "mcpsweep: %d points in %.1fs\n", total, time.Since(start).Seconds())
	}
}

// rankPolicies ranks the tournament through report.RankPolicies. The
// policy dimension is specs[0], so values[1:] names the group each
// row's goodput is normalized within. Rows arrive in submission order
// from sweep.Run, so the ranking is identical for any -workers value.
func rankPolicies(policies []string, rows []row) []report.PolicyRow {
	cells := make([]report.PolicyCell, len(rows))
	for i, r := range rows {
		cells[i] = report.PolicyCell{
			Policy: r.values[0], Group: strings.Join(r.values[1:], "\x00"),
			GoodPerHour: r.res.DeploysPerHour, P99S: r.res.P99LatencyS,
			Moves: r.res.DRSMoves + r.res.RebalanceMoves, Errors: r.res.Errors,
		}
	}
	return report.RankPolicies(policies, cells)
}

// renderRows writes the result grid to w as csv or an ascii table,
// propagating every write error.
func renderRows(w io.Writer, format, title string, headers []string, rows []row) error {
	if format == "csv" {
		cw := csv.NewWriter(w)
		if err := cw.Write(headers); err != nil {
			return err
		}
		for _, r := range rows {
			rec := append([]string{}, r.values...)
			rec = append(rec,
				strconv.FormatFloat(r.res.DeploysPerHour, 'g', -1, 64),
				csvLat(r.res, r.res.MeanLatencyS),
				csvLat(r.res, r.res.P95LatencyS),
				strconv.Itoa(r.res.Errors))
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
	t := report.NewTable(title, headers...)
	for _, r := range rows {
		cells := make([]any, 0, len(headers))
		for _, v := range r.values {
			cells = append(cells, v)
		}
		cells = append(cells, r.res.DeploysPerHour, tableLat(r.res, r.res.MeanLatencyS),
			tableLat(r.res, r.res.P95LatencyS), r.res.Errors)
		t.AddRow(cells...)
	}
	return t.Render(w)
}

// A grid point that completed zero deploys has no latency sample; render
// its latency columns as "n/a" rather than a misleading 0.
func tableLat(res core.ClosedLoopResult, v float64) float64 {
	if res.Deploys == 0 {
		return math.NaN() // report.FormatFloat renders NaN as "n/a"
	}
	return v
}

func csvLat(res core.ClosedLoopResult, v float64) string {
	if res.Deploys == 0 {
		return "n/a"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcpsweep:", err)
	os.Exit(1)
}
