package core

// This file and experiments2.go implement the reconstructed evaluation
// suite E1..E12 (see DESIGN.md for the experiment index). Each experiment
// is a pure function of its parameter struct: it builds fresh Cloud
// instances, drives them, and returns a structured result that renders as
// the paper-style table or figure. The registry in registry.go holds
// each one's default parameters; cmd/mcpbench and the repository's
// BenchmarkSuite both run them through it.

import (
	"fmt"
	"io"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/metrics"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/report"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/stats"
	"cloudmcp/internal/sweep"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

// Hour and Day are convenient horizons in seconds.
const (
	Hour = 3600.0
	Day  = 86400.0
)

// profiles returns the three workload profiles every characterization
// experiment compares.
func profiles() []workload.Profile {
	return []workload.Profile{workload.CloudA(), workload.CloudB(), workload.ClassicDC()}
}

// runProfileTrace runs one profile on a fresh default cloud and returns
// the trace.
func runProfileTrace(seed int64, pr workload.Profile, horizon float64) ([]trace.Record, workload.Stats, error) {
	c, err := New(DefaultConfig(seed))
	if err != nil {
		return nil, workload.Stats{}, err
	}
	st, err := c.RunProfile(pr, horizon)
	if err != nil {
		return nil, workload.Stats{}, err
	}
	return c.Records(), st, nil
}

// ---------------------------------------------------------------------
// E1 — operation mix per environment (paper: management-operation table).

// E1Params configures the op-mix characterization.
type E1Params struct {
	Seed     int64
	HorizonS float64 // default 2 simulated days
}

// E1Result holds the per-profile operation mixes.
type E1Result struct {
	Horizon  float64
	Profiles []string
	Mix      map[string][]analysis.MixRow
	Total    map[string]int
}

// RunE1 runs each profile on a fresh cloud and tabulates the mix.
func RunE1(p E1Params) (*E1Result, error) {
	if p.HorizonS == 0 {
		p.HorizonS = 2 * Day
	}
	res := &E1Result{Horizon: p.HorizonS, Mix: map[string][]analysis.MixRow{}, Total: map[string]int{}}
	for _, pr := range profiles() {
		recs, _, err := runProfileTrace(p.Seed, pr, p.HorizonS)
		if err != nil {
			return nil, fmt.Errorf("E1 %s: %w", pr.Name, err)
		}
		res.Profiles = append(res.Profiles, pr.Name)
		res.Mix[pr.Name] = analysis.OpMix(recs)
		res.Total[pr.Name] = len(recs)
	}
	return res, nil
}

// Table renders the mix as one table with a count and share column per
// profile.
func (r *E1Result) Table() *report.Table {
	headers := []string{"operation"}
	for _, p := range r.Profiles {
		headers = append(headers, p+" n", p+" %")
	}
	t := report.NewTable(fmt.Sprintf("E1: management-operation mix over %.0f h", r.Horizon/Hour), headers...)
	for _, k := range ops.Kinds() {
		row := []any{k.String()}
		any := false
		for _, p := range r.Profiles {
			found := false
			for _, m := range r.Mix[p] {
				if m.Kind == k.String() {
					row = append(row, m.Count, 100*m.Frac)
					found = true
					any = any || m.Count > 0
					break
				}
			}
			if !found {
				row = append(row, 0, 0.0)
			}
		}
		if any {
			t.AddRow(row...)
		}
	}
	total := []any{"total"}
	for _, p := range r.Profiles {
		total = append(total, r.Total[p], 100.0)
	}
	t.AddRow(total...)
	return t
}

// Render writes the experiment's artifact.
func (r *E1Result) Render(w io.Writer) error { return r.Table().Render(w) }

// ---------------------------------------------------------------------
// E2 — operations per hour over time (paper: arrival-rate figure).

// E2Params configures the arrival-series figure.
type E2Params struct {
	Seed     int64
	HorizonS float64 // default 2 days
	BinS     float64 // default 1 hour
}

// E2Profile is one profile's series and burstiness.
type E2Profile struct {
	Name       string
	Series     []float64 // ops per bin
	Burstiness analysis.Burstiness
}

// E2Result holds the per-profile arrival series.
type E2Result struct {
	BinS     float64
	Profiles []E2Profile
}

// RunE2 produces the operations-per-hour series for each profile.
func RunE2(p E2Params) (*E2Result, error) {
	if p.HorizonS == 0 {
		p.HorizonS = 2 * Day
	}
	if p.BinS == 0 {
		p.BinS = Hour
	}
	res := &E2Result{BinS: p.BinS}
	for _, pr := range profiles() {
		recs, _, err := runProfileTrace(p.Seed, pr, p.HorizonS)
		if err != nil {
			return nil, fmt.Errorf("E2 %s: %w", pr.Name, err)
		}
		ts := analysis.RateSeries(recs, p.BinS, "")
		res.Profiles = append(res.Profiles, E2Profile{
			Name:   pr.Name,
			Series: ts.Bins(),
			// Burstiness at finer bins: session batches and burst trains
			// land within minutes, which hour-wide bins would smear out.
			Burstiness: analysis.MeasureBurstiness(recs, p.BinS/6, ""),
		})
	}
	return res, nil
}

// Render writes one series block per profile plus a burstiness table.
func (r *E2Result) Render(w io.Writer) error {
	for _, p := range r.Profiles {
		s := report.NewSeries(fmt.Sprintf("E2: %s management ops per %.0f min", p.Name, r.BinS/60), "bin", "ops")
		for i, y := range p.Series {
			s.Add(float64(i), y)
		}
		if err := s.Render(w); err != nil {
			return err
		}
	}
	t := report.NewTable("E2: burstiness", "profile", "mean/bin", "peak/bin", "peak:mean", "dispersion")
	for _, p := range r.Profiles {
		t.AddRow(p.Name, p.Burstiness.MeanPerBin, p.Burstiness.PeakPerBin,
			p.Burstiness.PeakToMean, p.Burstiness.IndexOfDispersion)
	}
	return t.Render(w)
}

// ---------------------------------------------------------------------
// E3 — interarrival-time CDF of provisioning requests (paper figure).

// E3Params configures the interarrival CDF.
type E3Params struct {
	Seed     int64
	HorizonS float64 // default 2 days
	Points   int     // CDF resolution, default 20
}

// E3Profile is one profile's deploy-interarrival CDF.
type E3Profile struct {
	Name string
	CDF  []stats.CDFPoint
	Mean float64
	CV   float64
}

// E3Result holds the CDFs.
type E3Result struct{ Profiles []E3Profile }

// RunE3 computes deploy interarrival CDFs per profile.
func RunE3(p E3Params) (*E3Result, error) {
	if p.HorizonS == 0 {
		p.HorizonS = 2 * Day
	}
	if p.Points == 0 {
		p.Points = 20
	}
	res := &E3Result{}
	for _, pr := range profiles() {
		recs, _, err := runProfileTrace(p.Seed, pr, p.HorizonS)
		if err != nil {
			return nil, fmt.Errorf("E3 %s: %w", pr.Name, err)
		}
		ia := analysis.Interarrivals(recs, ops.KindDeploy.String())
		res.Profiles = append(res.Profiles, E3Profile{
			Name: pr.Name,
			CDF:  ia.CDF(p.Points),
			Mean: ia.Mean(),
			CV:   ia.CV(),
		})
	}
	return res, nil
}

// Render writes a CDF table per profile.
func (r *E3Result) Render(w io.Writer) error {
	for _, p := range r.Profiles {
		t := report.NewTable(
			fmt.Sprintf("E3: %s deploy interarrival CDF (mean %.1fs, cv %.2f)", p.Name, p.Mean, p.CV),
			"F", "interarrival s")
		for _, pt := range p.CDF {
			t.AddRow(pt.F, pt.X)
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// E4 — per-operation latency with layer breakdown, full vs linked
// provisioning (paper table).

// E4Params configures the latency-breakdown table.
type E4Params struct {
	Seed     int64
	HorizonS float64 // default 12 hours
}

// E4Mode holds one provisioning mode's per-kind rows.
type E4Mode struct {
	Mode string
	Rows []analysis.LatencyRow
}

// E4Result holds both modes.
type E4Result struct{ Modes []E4Mode }

// RunE4 runs CloudA under full-clone and linked-clone provisioning and
// tabulates per-kind latency breakdowns.
func RunE4(p E4Params) (*E4Result, error) {
	if p.HorizonS == 0 {
		p.HorizonS = 12 * Hour
	}
	res := &E4Result{}
	for _, fast := range []bool{false, true} {
		cfg := DefaultConfig(p.Seed)
		cfg.Director.FastProvisioning = fast
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := c.RunProfile(workload.CloudA(), p.HorizonS); err != nil {
			return nil, err
		}
		mode := ops.FullClone.String()
		if fast {
			mode = ops.LinkedClone.String()
		}
		res.Modes = append(res.Modes, E4Mode{Mode: mode, Rows: analysis.LatencyByKind(c.Records())})
	}
	return res, nil
}

// Render writes one breakdown table per mode.
func (r *E4Result) Render(w io.Writer) error {
	for _, m := range r.Modes {
		t := report.NewTable("E4: latency breakdown, provisioning="+m.Mode,
			"operation", "n", "mean s", "p95 s", "queue", "cell", "mgmt", "db", "host", "data", "ctl%")
		for _, row := range m.Rows {
			b := row.MeanBreakdown
			t.AddRow(row.Kind, row.Count, row.MeanLatency, row.P95Latency,
				b.Queue, b.Cell, b.Mgmt, b.DB, b.Host, b.Data,
				100*analysis.ControlShare(b))
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// DeployControlShare returns the mean control share of successful deploys
// for the given mode, for EXPERIMENTS.md assertions.
func (r *E4Result) DeployControlShare(mode string) (float64, bool) {
	for _, m := range r.Modes {
		if m.Mode != mode {
			continue
		}
		for _, row := range m.Rows {
			if row.Kind == ops.KindDeploy.String() {
				return analysis.ControlShare(row.MeanBreakdown), true
			}
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------
// E5 — deploy latency vs template disk size, full vs linked (paper
// figure: why fast provisioning removes the data plane from the deploy
// path).

// E5Params configures the clone-latency sweep.
type E5Params struct {
	Seed    int64
	SizesGB []float64 // default 1..64
	Workers int       // sweep worker pool; 0 = GOMAXPROCS
}

// E5Point is one sweep point.
type E5Point struct {
	SizeGB  float64
	FullS   float64
	LinkedS float64
}

// E5Result holds the sweep.
type E5Result struct{ Points []E5Point }

// RunE5 measures a single uncontended deploy per size and mode. The
// sizes run in parallel through the sweep engine; each point is a pure
// function of (seed, size), so the table is identical for any Workers.
func RunE5(p E5Params) (*E5Result, error) {
	if len(p.SizesGB) == 0 {
		p.SizesGB = []float64{1, 2, 4, 8, 16, 32, 64}
	}
	points, err := sweep.Run(sweep.Options{MasterSeed: p.Seed, Workers: p.Workers}, len(p.SizesGB),
		func(sp sweep.Point) (E5Point, error) {
			size := p.SizesGB[sp.Index]
			pt := E5Point{SizeGB: size}
			for _, fast := range []bool{false, true} {
				cfg := DefaultConfig(p.Seed)
				cfg.Topology.TemplateDiskGB = size
				cfg.Director.FastProvisioning = fast
				c, err := New(cfg)
				if err != nil {
					return pt, err
				}
				inv := c.Inventory()
				tpl := inv.Template(inv.Templates()[0])
				var latency float64
				c.Go("deploy", func(proc *sim.Proc) {
					resD := c.Director().DeployVApp(proc, "org", tpl, 1, false)
					if resD.Err == nil && len(resD.Tasks) > 0 {
						latency = resD.Tasks[0].Latency()
					}
				})
				c.Run(100 * Hour)
				if fast {
					pt.LinkedS = latency
				} else {
					pt.FullS = latency
				}
			}
			return pt, nil
		})
	if err != nil {
		return nil, err
	}
	return &E5Result{Points: points}, nil
}

// Render writes the sweep as a table plus a ratio column.
func (r *E5Result) Render(w io.Writer) error {
	t := report.NewTable("E5: deploy latency vs template size",
		"size GB", "full s", "linked s", "full/linked")
	for _, pt := range r.Points {
		ratio := 0.0
		if pt.LinkedS > 0 {
			ratio = pt.FullS / pt.LinkedS
		}
		t.AddRow(pt.SizeGB, pt.FullS, pt.LinkedS, ratio)
	}
	return t.Render(w)
}

// ---------------------------------------------------------------------
// E6 — provisioning throughput vs offered concurrency (the paper's
// headline figure: with linked clones the control plane, not the
// datastore, is what saturates).

// E6Params configures the throughput sweep.
type E6Params struct {
	Seed        int64
	Concurrency []int   // default 1..128
	HorizonS    float64 // per point, default 30 min
	WarmupS     float64 // excluded from measurement, default 10% of horizon
	Workers     int     // sweep worker pool; 0 = GOMAXPROCS
}

// E6Point is one sweep point.
type E6Point struct {
	Concurrency    int
	FullPerHour    float64
	LinkedPerHour  float64
	FullMeanLatS   float64
	LinkedMeanLatS float64
}

// E6Result holds the sweep.
type E6Result struct{ Points []E6Point }

// ClosedLoopResult summarizes one closed-loop deploy→destroy run over
// its post-warmup window.
type ClosedLoopResult struct {
	DeploysPerHour float64
	MeanLatencyS   float64
	P95LatencyS    float64
	P99LatencyS    float64
	Deploys        int // successful deploys in the window
	Errors         int // failed deploys in the window
	// Retry and Goodput account for fault-injection activity over the
	// whole run (not just the post-warmup window); both are zero/nil
	// without cfg.Faults.
	Retry   mgmt.RetryStats
	Goodput []mgmt.GoodputRow
	// Reconcile carries per-controller reconciliation activity over the
	// whole run; nil without cfg.Reconcile.
	Reconcile []reconcile.Stats
	// Metrics is the end-of-run per-layer snapshot, nil unless
	// cfg.Metrics was set. It never affects the numbers above.
	Metrics *metrics.Snapshot
	// DBUtil is the management database's mean utilization: the shared
	// instance's on a shared-DB plane, the mean across instances on a
	// per-shard plane.
	DBUtil float64
	// DRSMoves and RebalanceMoves count the migrations the balancer and
	// the storage rebalancer issued over the whole run — the churn a
	// policy choice induces, scored by the E21 tournament.
	DRSMoves       int64
	RebalanceMoves int64
	// Plane reports the run's management-plane topology and cross-shard
	// coordination counters (Shards == 1, zero counters on the default
	// single-shard plane).
	Plane plane.Stats
}

// RunClosedLoop drives `clients` closed-loop deploy→destroy workers
// against a cloud built from cfg for horizon seconds and summarizes the
// post-warmup window. E6/E10/E11 and cmd/mcpsweep all measure through
// this harness; the think-time stream derives from cfg.Seed only, so the
// result is a pure function of (cfg, clients, horizon, warmup).
func RunClosedLoop(cfg Config, clients int, horizonS, warmupS float64) (ClosedLoopResult, error) {
	c, err := New(cfg)
	if err != nil {
		return ClosedLoopResult{}, err
	}
	return runClosedLoopOn(c, clients, horizonS, warmupS), nil
}

// runClosedLoopOn is RunClosedLoop against an already-built cloud, for
// callers that prepare the inventory first (E19 prepopulates up to a
// million VMs before the workload starts). The cloud must be freshly
// built and not yet run.
func runClosedLoopOn(c *Cloud, clients int, horizonS, warmupS float64) ClosedLoopResult {
	cfg := c.cfg
	inv := c.Inventory()
	tpl := inv.Template(inv.Templates()[0])
	// The label predates the harness being shared beyond E6; it is part
	// of the reproducibility contract (changing it changes every
	// closed-loop artifact), so it stays.
	stream := rng.Derive(cfg.Seed, "e6")
	for i := 0; i < clients; i++ {
		org := fmt.Sprintf("org%d", i%8)
		c.Go(fmt.Sprintf("worker%d", i), func(p *sim.Proc) {
			for p.Now() < horizonS {
				res := c.Director().DeployVApp(p, org, tpl, 1, false)
				if res.Err == nil {
					c.Director().DeleteVApp(p, res.VApp, org)
				} else if res.VApp != nil && inv.VApp(res.VApp.ID) != nil {
					c.Director().DeleteVApp(p, res.VApp, org)
				}
				// Tiny think time decorrelates workers.
				p.Sleep(stream.Uniform(0.1, 0.5))
			}
		})
	}
	c.Run(horizonS)
	recs := analysis.FilterTime(c.Records(), warmupS, horizonS)
	all := analysis.FilterKind(recs, ops.KindDeploy.String())
	deploys := analysis.FilterOK(all)
	lat := analysis.LatencySample(deploys, "")
	res := ClosedLoopResult{
		DeploysPerHour: float64(len(deploys)) / (horizonS - warmupS) * Hour,
		MeanLatencyS:   lat.Mean(),
		P95LatencyS:    lat.Percentile(95),
		P99LatencyS:    lat.Percentile(99),
		Deploys:        len(deploys),
		Errors:         len(all) - len(deploys),
		Metrics:        c.MetricsSnapshot(),
		DBUtil:         c.DBUtilization(),
		DRSMoves:       c.DRS().Stats().Moves,
		RebalanceMoves: c.Director().Stats().RebalanceMoves,
		Plane:          c.Plane().Stats(),
	}
	if cfg.Faults != nil {
		res.Retry = c.Plane().RetryStats()
		res.Goodput = c.Plane().Goodput()
	}
	if cfg.Reconcile != nil {
		res.Reconcile = c.ReconcileStats()
	}
	return res
}

// closedLoopDeploys runs `workers` closed-loop deploy→destroy clients for
// horizon seconds and returns (deploys/hour, mean deploy latency) over
// the post-warmup window.
func closedLoopDeploys(seed int64, fast bool, workers int, horizon, warmup float64, mutate func(*Config)) (float64, float64, error) {
	cfg := DefaultConfig(seed)
	cfg.Director.FastProvisioning = fast
	cfg.Director.RebalanceThreshold = 0 // isolate provisioning
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := RunClosedLoop(cfg, workers, horizon, warmup)
	return r.DeploysPerHour, r.MeanLatencyS, err
}

// RunE6 sweeps closed-loop concurrency for both provisioning modes; the
// concurrency points fan across the sweep engine's worker pool.
func RunE6(p E6Params) (*E6Result, error) {
	if len(p.Concurrency) == 0 {
		p.Concurrency = []int{1, 2, 4, 8, 16, 32, 64, 128}
	}
	if p.HorizonS == 0 {
		p.HorizonS = 30 * 60
	}
	if p.WarmupS == 0 {
		p.WarmupS = p.HorizonS / 10
	}
	points, err := sweep.Run(sweep.Options{MasterSeed: p.Seed, Workers: p.Workers}, len(p.Concurrency),
		func(sp sweep.Point) (E6Point, error) {
			n := p.Concurrency[sp.Index]
			pt := E6Point{Concurrency: n}
			var err error
			pt.FullPerHour, pt.FullMeanLatS, err = closedLoopDeploys(p.Seed, false, n, p.HorizonS, p.WarmupS, nil)
			if err != nil {
				return pt, err
			}
			pt.LinkedPerHour, pt.LinkedMeanLatS, err = closedLoopDeploys(p.Seed, true, n, p.HorizonS, p.WarmupS, nil)
			return pt, err
		})
	if err != nil {
		return nil, err
	}
	return &E6Result{Points: points}, nil
}

// Render writes the sweep table and the two throughput series.
func (r *E6Result) Render(w io.Writer) error {
	t := report.NewTable("E6: provisioning throughput vs concurrency",
		"workers", "full/h", "linked/h", "linked:full", "full lat s", "linked lat s")
	for _, pt := range r.Points {
		ratio := 0.0
		if pt.FullPerHour > 0 {
			ratio = pt.LinkedPerHour / pt.FullPerHour
		}
		t.AddRow(pt.Concurrency, pt.FullPerHour, pt.LinkedPerHour, ratio,
			pt.FullMeanLatS, pt.LinkedMeanLatS)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	for _, mode := range []string{"full", "linked"} {
		s := report.NewSeries("E6: "+mode+" deploys/hour", "workers", "deploys/h")
		for _, pt := range r.Points {
			if mode == "full" {
				s.Add(float64(pt.Concurrency), pt.FullPerHour)
			} else {
				s.Add(float64(pt.Concurrency), pt.LinkedPerHour)
			}
		}
		if err := s.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// PeakThroughput returns the max deploys/hour seen for a mode.
func (r *E6Result) PeakThroughput(linked bool) float64 {
	best := 0.0
	for _, pt := range r.Points {
		v := pt.FullPerHour
		if linked {
			v = pt.LinkedPerHour
		}
		if v > best {
			best = v
		}
	}
	return best
}
