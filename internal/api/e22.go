package api

// Extension experiment E22: the serving surface under load. Each cell
// boots a full stack — cloud, paced driver, REST server on a loopback
// listener — and drives it with the in-package load generator at a
// given (virtual users × pacing ratio × shards) point, measuring
// end-to-end goodput and tail latency *as clients see them*: the
// virtual-time task latency plus the API-layer queue wait, with the
// queueing share split out. This is the measurement the batch
// experiments structurally cannot make — there is no API layer between
// a workload generator and the director when both live inside the
// kernel.
//
// Unlike E1..E21, cells exercise the wall clock (the paced driver holds
// virtual time to it, and live submissions are quantized by real
// arrival), so E22 artifacts are *not* byte-reproducible; they are
// load-test results, like the perf-smoke job, not determinism
// artifacts. E22 lives here rather than internal/core because it
// imports the server; core reaches it through RegisterExtension.
//
// Cells run serially — each one saturates the host by design, and
// overlapping them would just measure scheduler noise.

import (
	"fmt"
	"io"
	"net"
	"time"

	"cloudmcp/internal/core"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sim"
)

// E22Params configures the serving-surface load grid.
type E22Params struct {
	Seed    int64
	Users   []int     // virtual-user grid, default {100, 300, 1000}
	Ratios  []float64 // pacing ratios (virtual s per wall s), default {120, 600}
	Shards  []int     // management-plane shards, default {1, 4}
	WallS   float64   // wall seconds of load per cell, default 4
	VMs     int       // vApp size per instantiate, default 1
	Quantum float64   // injection quantum in virtual seconds, default 0.25
}

func (p *E22Params) setDefaults() {
	if len(p.Users) == 0 {
		p.Users = []int{100, 300, 1000}
	}
	if len(p.Ratios) == 0 {
		p.Ratios = []float64{120, 600}
	}
	if len(p.Shards) == 0 {
		p.Shards = []int{1, 4}
	}
	if p.WallS <= 0 {
		p.WallS = 4
	}
	if p.VMs <= 0 {
		p.VMs = 1
	}
	if p.Quantum <= 0 {
		p.Quantum = 0.25
	}
}

// E22Result holds the measured grid.
type E22Result struct {
	Params E22Params
	Rows   []report.APIRow
}

// RunE22 runs the serving-surface load grid.
func RunE22(p E22Params) (*E22Result, error) {
	p.setDefaults()
	res := &E22Result{Params: p}
	for _, shards := range p.Shards {
		for _, ratio := range p.Ratios {
			for _, users := range p.Users {
				row, err := runE22Cell(p, users, ratio, shards)
				if err != nil {
					return nil, fmt.Errorf("E22 cell users=%d ratio=%g shards=%d: %w",
						users, ratio, shards, err)
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res, nil
}

// runE22Cell boots one full serving stack and loads it.
func runE22Cell(p E22Params, users int, ratio float64, shards int) (report.APIRow, error) {
	cfg := core.DefaultConfig(p.Seed)
	cfg.Record = false // live load; nobody reads the trace and it only costs memory
	cfg.Plane.Shards = shards
	c, err := core.New(cfg)
	if err != nil {
		return report.APIRow{}, err
	}
	drv := sim.NewPaced(c.Env(), sim.PacedConfig{Ratio: ratio, QuantumS: sim.Time(p.Quantum)})
	fe := core.NewFrontend(c, drv, core.FrontendConfig{})
	srv := NewServer(fe)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return report.APIRow{}, err
	}
	hs := NewHTTPServer(srv)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	runDone := make(chan struct{})
	go func() {
		drv.Run(sim.Forever)
		close(runDone)
	}()

	load, err := RunLoad(LoadConfig{
		BaseURL:     "http://" + ln.Addr().String(),
		Users:       users,
		Duration:    time.Duration(p.WallS * float64(time.Second)),
		VMs:         p.VMs,
		Seed:        p.Seed,
		PollInitial: 5 * time.Millisecond,
		PollMax:     100 * time.Millisecond,
	})

	drv.Stop()
	<-runDone
	_ = hs.Close()
	<-serveErr
	if err != nil {
		return report.APIRow{}, err
	}
	return report.APIRow{
		Users:    users,
		Ratio:    ratio,
		Shards:   shards,
		GoodPerH: load.GoodPerHour(),
		P50S:     load.PercentileS(50),
		P99S:     load.PercentileS(99),
		APIShare: load.QueueShare(),
		MaxLagMS: float64(drv.MaxLag()) / float64(time.Millisecond),
		Errors:   load.Failed + load.HTTPError,
		Cutoff:   load.Cutoff,
	}, nil
}

// Render writes the E22 artifact.
func (r *E22Result) Render(w io.Writer) error {
	t := report.APITable(
		fmt.Sprintf("E22: serving surface under load (%gs wall per cell, quantum %gs; wall-clock measurement, not byte-reproducible)",
			r.Params.WallS, r.Params.Quantum),
		r.Rows)
	if t == nil {
		_, err := fmt.Fprintln(w, "E22: no cells")
		return err
	}
	return t.Render(w)
}

// RegisterE22 adds E22 to core's experiment registry so mcpbench -only
// E22 dispatches here. Call once from the binary's main.
func RegisterE22() {
	core.RegisterExtension(core.Experiment{
		Name: "E22",
		Run: func(seed int64, scale float64, _ int) (core.Renderable, error) {
			p := E22Params{Seed: seed}
			if scale < 1 {
				// Quick/CI runs: a short two-cell ladder.
				p.Users = []int{25, 100}
				p.Ratios = []float64{240}
				p.Shards = []int{1}
				p.WallS = 1.5
			}
			return RunE22(p)
		},
	})
}
