package core

// Extension experiment E20: the reconciliation plane as a competing
// workload. Modern control planes run closed-loop controllers that
// continuously re-list managed objects and correct drift; that
// background work goes through the same admission slots, worker
// threads, lock tables, and management-DB connections as user
// provisioning. E20 measures the interference three ways. The main grid
// runs a closed-loop deploy workload against clouds with the drift and
// catalog controllers enabled, sweeping reconcile interval × queue
// depth × shard count (plus a reconcile-off baseline per shard count):
// foreground goodput and p99 degrade as the resync interval shrinks and
// the queue depth grows, and sharding buys headroom back — except for
// the catalog fan-out, which is host-less and pins the home shard. A
// second leg triggers a drift storm: a host failure restarts a fleet
// through HA, every restarted VM's observed config diverges at once,
// and the storm of corrections collides with foreground provisioning. A
// third leg overfills datastores and lets the "thundering rebalance"
// controller drain them through storage migrations.
//
// E20 is an opt-in extension like E17/E18: reachable through
// RunExperiment / mcpbench -only E20 / mcpbench -reconcile, never part
// of the default E1..E16 suite, so existing artifacts stay
// byte-identical.

import (
	"fmt"
	"io"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/ha"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/report"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/sweep"
)

// E20Params configures the reconciliation-interference experiment.
type E20Params struct {
	Seed       int64
	IntervalsS []float64 // resync-interval grid, default {600, 300, 120, 60}
	Depths     []int     // worker-depth grid, default {1, 4}
	Shards     []int     // shard-count grid, default {1, 4}
	Clients    int       // closed-loop foreground workers, default 64
	HorizonS   float64   // per leg, default 30 min
	WarmupS    float64   // default HorizonS/10
	Workers    int       // sweep pool bound (0 = GOMAXPROCS)
	StormVMs   int       // drift-storm fleet size, default 64
	FillVMs    int       // rebalance-leg fleet size, default 44
}

// E20Cell is one grid point's outcome. IntervalS == 0 is the
// reconcile-off baseline for that shard count (Depth is meaningless).
type E20Cell struct {
	Shards    int
	Depth     int
	IntervalS float64

	GoodPerHour float64 // successful foreground deploys/hour
	P99S        float64 // foreground deploy p99 latency
	DBUtil      float64 // management DB utilization

	ReconcileRuns int64   // reconciliations executed across controllers
	ThrottleS     float64 // seconds reconcilers waited on rate limiters
}

// E20Storm is the drift-storm leg: foreground service before and after
// a host failure floods the drift controller.
type E20Storm struct {
	FleetVMs  int // powered-on fleet deployed before the failure
	Affected  int // VMs on the failed host
	Restarted int // VMs HA brought back elsewhere
	Marked    int // keys force-enqueued on the drift controller

	DriftRuns   int64
	DriftErrors int64

	PreGoodPerHour  float64 // foreground deploys/hour before the failure
	PreP99S         float64
	PostGoodPerHour float64 // and after, with the correction storm running
	PostP99S        float64
}

// E20Rebalance is the thundering-rebalance leg: overfilled datastores
// drained by the rebalance controller.
type E20Rebalance struct {
	FleetVMs   int
	FillBefore float64 // max datastore fill fraction after the fill
	FillAfter  float64 // and at the horizon

	Runs      int64
	Errors    int64
	Retries   int64
	Drops     int64
	ThrottleS float64
}

// E20Result holds the grid plus the two scenario legs.
type E20Result struct {
	Cells     []E20Cell
	Storm     E20Storm
	Rebalance E20Rebalance
	// Heaviest carries per-controller rows from the heaviest grid point
	// (smallest interval, largest depth, largest shard count).
	Heaviest []report.ReconcileRow
}

// e20Grid enables the drift and catalog controllers for a grid point.
// The wide catalog (48 templates vs the default 6) makes each resync a
// real fan-out, and the elevated drift rate keeps the workqueues fed.
func e20Grid(seed int64, shards, depth int, intervalS float64) Config {
	cfg := DefaultConfig(seed)
	cfg.Director.FastProvisioning = true
	cfg.Director.RebalanceThreshold = 0 // isolate provisioning
	// Same data-plane de-bottlenecking as E18: the managers, not the
	// spindles, must be the constraint.
	cfg.Topology.DatastoreMBps = 4000
	cfg.Director.MaxChainLen = 1 << 20
	cfg.Topology.Templates = 48
	cfg.Plane.Shards = shards
	if intervalS > 0 {
		rc := reconcile.DefaultConfig()
		rc.Controllers = []string{reconcile.ControllerDrift, reconcile.ControllerCatalog}
		rc.IntervalS = intervalS
		rc.Depth = depth
		rc.RatePerS = 4
		rc.Burst = 8
		rc.DriftRate = 0.25
		cfg.Reconcile = &rc
	}
	return cfg
}

// RunE20 sweeps the interference grid, then runs the drift-storm and
// thundering-rebalance legs serially (each is a pure function of the
// seed, so the artifact is identical across sweep worker counts).
func RunE20(p E20Params) (*E20Result, error) {
	if len(p.IntervalsS) == 0 {
		p.IntervalsS = []float64{600, 300, 120, 60}
	}
	if len(p.Depths) == 0 {
		p.Depths = []int{1, 4}
	}
	if len(p.Shards) == 0 {
		p.Shards = []int{1, 4}
	}
	if p.Clients == 0 {
		p.Clients = 64
	}
	if p.HorizonS == 0 {
		p.HorizonS = 30 * 60
	}
	if p.WarmupS == 0 {
		p.WarmupS = p.HorizonS / 10
	}
	if p.StormVMs == 0 {
		p.StormVMs = 64
	}
	if p.FillVMs == 0 {
		p.FillVMs = 44
	}

	type combo struct {
		shards, depth int
		intervalS     float64
	}
	var combos []combo
	for _, s := range p.Shards {
		combos = append(combos, combo{shards: s}) // reconcile-off baseline
		for _, d := range p.Depths {
			for _, iv := range p.IntervalsS {
				combos = append(combos, combo{shards: s, depth: d, intervalS: iv})
			}
		}
	}
	type gridOut struct {
		cell  E20Cell
		stats []reconcile.Stats
	}
	outs, err := sweep.Run(sweep.Options{MasterSeed: p.Seed, Workers: p.Workers}, len(combos),
		func(sp sweep.Point) (gridOut, error) {
			cb := combos[sp.Index]
			r, err := RunClosedLoop(e20Grid(p.Seed, cb.shards, cb.depth, cb.intervalS), p.Clients, p.HorizonS, p.WarmupS)
			if err != nil {
				return gridOut{}, fmt.Errorf("E20 shards=%d depth=%d interval=%g: %w", cb.shards, cb.depth, cb.intervalS, err)
			}
			out := gridOut{cell: E20Cell{
				Shards: cb.shards, Depth: cb.depth, IntervalS: cb.intervalS,
				GoodPerHour: r.DeploysPerHour, P99S: r.P99LatencyS, DBUtil: r.DBUtil,
			}, stats: r.Reconcile}
			for _, s := range r.Reconcile {
				out.cell.ReconcileRuns += s.Runs
				out.cell.ThrottleS += s.ThrottleS
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	res := &E20Result{}
	var heavy *gridOut
	for i := range outs {
		res.Cells = append(res.Cells, outs[i].cell)
		c := outs[i].cell
		if c.IntervalS == 0 {
			continue
		}
		if heavy == nil {
			heavy = &outs[i]
			continue
		}
		h := heavy.cell
		if c.IntervalS < h.IntervalS ||
			(c.IntervalS == h.IntervalS && (c.Depth > h.Depth ||
				(c.Depth == h.Depth && c.Shards > h.Shards))) {
			heavy = &outs[i]
		}
	}
	if heavy != nil {
		for _, s := range heavy.stats {
			res.Heaviest = append(res.Heaviest, report.ReconcileRow{
				Controller: s.Controller, Runs: s.Runs, Errors: s.Errors,
				Retries: s.Retries, Drops: s.Drops,
				Dedups: s.Queue.Dedups, Requeues: s.Queue.Requeues,
				ThrottleS: s.ThrottleS, BusyS: s.BusyS,
			})
		}
	}
	if res.Storm, err = e20DriftStorm(p); err != nil {
		return nil, fmt.Errorf("E20 storm: %w", err)
	}
	if res.Rebalance, err = e20Rebalance(p); err != nil {
		return nil, fmt.Errorf("E20 rebalance: %w", err)
	}
	return res, nil
}

// e20DriftStorm deploys a powered-on fleet, runs foreground deploy→
// destroy workers throughout, fails the busiest host at the half-way
// mark, and marks every VM drifted — HA's restart burst plus the drift
// controller's correction storm land on the management plane at once.
func e20DriftStorm(p E20Params) (E20Storm, error) {
	cfg := DefaultConfig(p.Seed)
	cfg.Director.FastProvisioning = true
	cfg.Director.RebalanceThreshold = 0
	cfg.Topology.DatastoreMBps = 4000
	cfg.Director.MaxChainLen = 1 << 20
	rc := reconcile.DefaultConfig()
	rc.Controllers = []string{reconcile.ControllerDrift}
	rc.IntervalS, rc.Depth, rc.RatePerS, rc.Burst = 300, 4, 4, 8
	rc.DriftRate = 0.05
	cfg.Reconcile = &rc
	c, err := New(cfg)
	if err != nil {
		return E20Storm{}, err
	}
	eng, err := ha.New(c.Env(), c.Manager(), ha.DefaultConfig())
	if err != nil {
		return E20Storm{}, err
	}
	inv := c.Inventory()
	tpl := inv.Template(inv.Templates()[0])
	H := p.HorizonS
	st := E20Storm{FleetVMs: p.StormVMs}

	// The protected fleet: 8 vApps of powered-on VMs deployed up front.
	per := (p.StormVMs + 7) / 8
	for i := 0; i < 8; i++ {
		i := i
		c.Go(fmt.Sprintf("fleet%d", i), func(fp *sim.Proc) {
			c.Director().DeployVApp(fp, fmt.Sprintf("fleet%d", i), tpl, per, true)
		})
	}
	// Foreground provisioning, measured before vs after the failure.
	stream := rng.Derive(p.Seed, "e20.storm")
	for i := 0; i < 32; i++ {
		org := fmt.Sprintf("org%d", i%8)
		c.Go(fmt.Sprintf("fg%d", i), func(wp *sim.Proc) {
			for wp.Now() < H {
				res := c.Director().DeployVApp(wp, org, tpl, 1, false)
				if res.Err == nil {
					c.Director().DeleteVApp(wp, res.VApp, org)
				} else if res.VApp != nil && inv.VApp(res.VApp.ID) != nil {
					c.Director().DeleteVApp(wp, res.VApp, org)
				}
				wp.Sleep(stream.Uniform(0.1, 0.5))
			}
		})
	}
	// The failure: crash the busiest host, then mark the whole inventory
	// drifted — every restarted (and bystander) VM re-reconciles at once.
	c.Go("failer", func(fp *sim.Proc) {
		fp.Sleep(H / 2)
		var busiest *inventory.Host
		for _, id := range inv.Hosts() {
			h := inv.Host(id)
			if h.InService() && (busiest == nil || len(h.VMs) > len(busiest.VMs)) {
				busiest = h
			}
		}
		if busiest == nil {
			return
		}
		fo := eng.FailHost(fp, busiest)
		st.Affected = fo.Affected
		st.Restarted = fo.Restarted
		st.Marked = c.Reconcile().MarkDrifted(inv.VMs())
	})
	c.Run(H)

	window := func(lo, hi float64) (float64, float64) {
		recs := analysis.FilterTime(c.Records(), lo, hi)
		deploys := analysis.FilterOK(analysis.FilterKind(recs, ops.KindDeploy.String()))
		lat := analysis.LatencySample(deploys, "")
		return float64(len(deploys)) / (hi - lo) * Hour, lat.Percentile(99)
	}
	// Pre window skips the fleet ramp-up quarter.
	st.PreGoodPerHour, st.PreP99S = window(H/4, H/2)
	st.PostGoodPerHour, st.PostP99S = window(H/2, H)
	for _, s := range c.ReconcileStats() {
		if s.Controller == reconcile.ControllerDrift {
			st.DriftRuns = s.Runs
			st.DriftErrors = s.Errors
		}
	}
	return st, nil
}

// e20Rebalance crams full-clone VMs onto the first half of a set of
// small datastores, then lets the rebalance controller thunder: every
// resident VM of an overfull datastore is enqueued at once and drains
// through storage migrations to the empty datastores. The small
// template and fast spindles keep the fill phase well inside the first
// resync interval even at -quick horizons (deploys to one datastore
// serialize on its lock).
func e20Rebalance(p E20Params) (E20Rebalance, error) {
	cfg := DefaultConfig(p.Seed)
	cfg.Director.RebalanceThreshold = 0 // only the reconciler rebalances
	cfg.Topology.DatastoreGB = 120
	cfg.Topology.TemplateDiskGB = 8
	cfg.Topology.DatastoreMBps = 4000
	rc := reconcile.DefaultConfig()
	rc.Controllers = []string{reconcile.ControllerRebalance}
	rc.IntervalS, rc.Depth, rc.RatePerS, rc.Burst = 120, 4, 4, 8
	rc.FillFraction = 0.6
	cfg.Reconcile = &rc
	c, err := New(cfg)
	if err != nil {
		return E20Rebalance{}, err
	}
	inv := c.Inventory()
	tpl := inv.Template(inv.Templates()[0])
	mgr := c.Manager()
	hosts := inv.Hosts()
	dss := inv.Datastores()
	maxFill := func() float64 {
		var m float64
		for _, id := range dss {
			if f := inv.Datastore(id).FillFraction(); f > m {
				m = f
			}
		}
		return m
	}
	st := E20Rebalance{FleetVMs: p.FillVMs}
	// Fill the first two datastores with full clones.
	const fillers = 4
	per := (p.FillVMs + fillers - 1) / fillers
	remaining := fillers
	for i := 0; i < fillers; i++ {
		i := i
		c.Go(fmt.Sprintf("fill%d", i), func(fp *sim.Proc) {
			for j := 0; j < per; j++ {
				n := i*per + j
				if n >= p.FillVMs {
					break
				}
				host := inv.Host(hosts[n%len(hosts)])
				ds := inv.Datastore(dss[n%(len(dss)/2)])
				mgr.DeployVM(fp, "fill", tpl, host, ds, ops.FullClone, mgmt.ReqCtx{Org: "fill"})
			}
			remaining--
			if remaining == 0 {
				st.FillBefore = maxFill()
			}
		})
	}
	c.Run(p.HorizonS)
	st.FillAfter = maxFill()
	for _, s := range c.ReconcileStats() {
		st.Runs = s.Runs
		st.Errors = s.Errors
		st.Retries = s.Retries
		st.Drops = s.Drops
		st.ThrottleS = s.ThrottleS
	}
	return st, nil
}

// Render writes the interference grid, the two scenario legs, and the
// per-controller breakdown for the heaviest grid point.
func (r *E20Result) Render(w io.Writer) error {
	gt := report.NewTable("E20: foreground goodput vs reconcile interval x depth x shards",
		"shards", "depth", "interval s", "good/h", "p99 s", "db util", "reconcile runs", "throttle s")
	for _, c := range r.Cells {
		if c.IntervalS == 0 {
			gt.AddRow(c.Shards, "-", "off", c.GoodPerHour, c.P99S, c.DBUtil, c.ReconcileRuns, c.ThrottleS)
			continue
		}
		gt.AddRow(c.Shards, c.Depth, c.IntervalS, c.GoodPerHour, c.P99S, c.DBUtil, c.ReconcileRuns, c.ThrottleS)
	}
	if err := gt.Render(w); err != nil {
		return err
	}
	s := r.Storm
	stormT := report.NewTable("E20: drift storm after a host failure",
		"fleet", "affected", "restarted", "marked", "drift runs", "drift err",
		"pre good/h", "pre p99 s", "post good/h", "post p99 s")
	stormT.AddRow(s.FleetVMs, s.Affected, s.Restarted, s.Marked, s.DriftRuns, s.DriftErrors,
		s.PreGoodPerHour, s.PreP99S, s.PostGoodPerHour, s.PostP99S)
	if err := stormT.Render(w); err != nil {
		return err
	}
	b := r.Rebalance
	rbT := report.NewTable("E20: thundering rebalance on datastore fill",
		"fleet", "fill before", "fill after", "runs", "errors", "retries", "drops", "throttle s")
	rbT.AddRow(b.FleetVMs, b.FillBefore, b.FillAfter, b.Runs, b.Errors, b.Retries, b.Drops, b.ThrottleS)
	if err := rbT.Render(w); err != nil {
		return err
	}
	if ht := report.ReconcileTable(r.Heaviest); ht != nil {
		return ht.Render(w)
	}
	return nil
}
