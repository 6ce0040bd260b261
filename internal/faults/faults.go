// Package faults is the deterministic fault-injection layer for the
// simulated control plane. It decides, per (layer, task, attempt),
// whether an operation's interaction with that layer transiently fails
// and whether it is stalled by an injected latency spike — the raw
// material for the retry/timeout/backoff policy in internal/mgmt and
// for the E17 goodput-under-faults experiment.
//
// Determinism is the load-bearing property, and it uses the same
// discipline as internal/sweep: every decision draws from a stream
// derived as rng.DeriveSeed(seed, "fault:<layer>:<taskID>:<attempt>"),
// never from a shared stream, so an outcome is a pure function of the
// master seed and the identifiers — byte-identical across sweep worker
// counts and unaffected by how many other decisions were made first.
// Equally load-bearing: a layer whose probabilities are all zero draws
// nothing at all, so a zero-rate Config is behaviourally identical to
// no injector (the faults-disabled equivalence test pins this down).
package faults

import (
	"fmt"

	"cloudmcp/internal/metrics"
	"cloudmcp/internal/rng"
)

// Layer names, used both as Decide arguments and as the <layer> part of
// the derivation label. They name the subsystem whose interaction fails:
// host agents (hostsim), the management database (mgmtdb commits), the
// migration network (netsim), and storage (datastore I/O).
const (
	LayerHost    = "host"
	LayerDB      = "db"
	LayerNet     = "net"
	LayerStorage = "storage"
)

// Stall is an injected latency-spike distribution: with probability
// Prob an interaction is delayed by a LogNormal(MeanS, CV) number of
// seconds on top of its modeled service time.
type Stall struct {
	Prob  float64 `json:"prob,omitempty"`
	MeanS float64 `json:"mean_s,omitempty"`
	CV    float64 `json:"cv,omitempty"`
}

// Layer configures fault injection for one subsystem.
type Layer struct {
	// FailProb is the per-attempt probability that the interaction
	// transiently fails (the attempt's work is wasted and the manager's
	// retry policy decides what happens next).
	FailProb float64 `json:"fail_prob,omitempty"`
	// PerKind overrides FailProb for specific operation kinds, keyed by
	// ops.Kind.String() (e.g. "deploy", "migrate").
	PerKind map[string]float64 `json:"per_kind,omitempty"`
	// Stall injects latency spikes independently of failures.
	Stall Stall `json:"stall,omitempty"`
}

func (l Layer) failProbFor(kind string) float64 {
	if p, ok := l.PerKind[kind]; ok {
		return p
	}
	return l.FailProb
}

// active reports whether the layer can ever inject anything.
func (l Layer) active() bool {
	if l.FailProb > 0 || l.Stall.Prob > 0 {
		return true
	}
	for _, p := range l.PerKind {
		if p > 0 {
			return true
		}
	}
	return false
}

func (l Layer) validate(name string) error {
	check := func(what string, p float64) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("faults: %s %s probability %v out of [0,1]", name, what, p)
		}
		return nil
	}
	if err := check("fail", l.FailProb); err != nil {
		return err
	}
	for k, p := range l.PerKind {
		if err := check("per-kind "+k, p); err != nil {
			return err
		}
	}
	if err := check("stall", l.Stall.Prob); err != nil {
		return err
	}
	if l.Stall.Prob > 0 && l.Stall.MeanS <= 0 {
		return fmt.Errorf("faults: %s stall mean %v must be positive when stall prob is set", name, l.Stall.MeanS)
	}
	if l.Stall.CV < 0 {
		return fmt.Errorf("faults: %s stall cv %v negative", name, l.Stall.CV)
	}
	return nil
}

// Config holds per-layer fault rates. The zero value injects nothing.
type Config struct {
	Host    Layer `json:"host,omitempty"`
	DB      Layer `json:"db,omitempty"`
	Net     Layer `json:"net,omitempty"`
	Storage Layer `json:"storage,omitempty"`
}

// Enabled reports whether any layer can inject anything.
func (c Config) Enabled() bool {
	return c.Host.active() || c.DB.active() || c.Net.active() || c.Storage.active()
}

// Validate checks every probability and distribution parameter.
func (c Config) Validate() error {
	for _, l := range []struct {
		name string
		l    Layer
	}{{LayerHost, c.Host}, {LayerDB, c.DB}, {LayerNet, c.Net}, {LayerStorage, c.Storage}} {
		if err := l.l.validate(l.name); err != nil {
			return err
		}
	}
	return nil
}

// Preset returns a one-knob fault scenario scaled by rate (the host
// agents' per-attempt transient-failure probability; the other layers
// fail at a fraction of it, and every layer sees latency spikes at the
// same rate). Preset(0) is a valid all-zero config; rates are clamped
// to 1. This is what the CLIs' -fault-rate flag builds.
func Preset(rate float64) Config {
	clamp := func(p float64) float64 {
		if p > 1 {
			return 1
		}
		return p
	}
	return Config{
		Host:    Layer{FailProb: clamp(rate), Stall: Stall{Prob: clamp(rate), MeanS: 2.0, CV: 1.0}},
		DB:      Layer{FailProb: clamp(rate / 2), Stall: Stall{Prob: clamp(rate), MeanS: 0.25, CV: 1.0}},
		Net:     Layer{Stall: Stall{Prob: clamp(rate), MeanS: 2.0, CV: 1.0}}, // degradation, not loss
		Storage: Layer{FailProb: clamp(rate / 4), Stall: Stall{Prob: clamp(rate), MeanS: 1.0, CV: 1.0}},
	}
}

// Outcome is one injection decision: the interaction is stalled by
// StallS seconds of injected latency, and — independently — transiently
// fails when Fail is set. The zero Outcome injects nothing.
type Outcome struct {
	Fail   bool
	StallS float64
}

// Error is the transient failure an injected fault produces. It is the
// error a task carries when the retry policy gives up.
type Error struct {
	Layer   string // which subsystem failed (LayerHost, ...)
	Op      string // operation kind
	Attempt int    // 1-based attempt that observed the failure
}

func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s failure (op %s, attempt %d)", e.Layer, e.Op, e.Attempt)
}

// LayerStats counts one layer's injections.
type LayerStats struct {
	Decisions    int64   // Decide calls that actually drew
	Failures     int64   // transient failures injected
	Stalls       int64   // latency spikes injected
	StallSeconds float64 // total injected stall time
}

// Stats aggregates per-layer injection counts.
type Stats struct {
	Host    LayerStats
	DB      LayerStats
	Net     LayerStats
	Storage LayerStats
}

// Injector draws fault decisions for one simulation. Build one per
// simulated cloud (its counters, like the rest of the kernel, are
// single-threaded per run); the per-decision streams mean two injectors
// with the same seed and config always agree.
//
// Decisions are frequent — several per task attempt — so the injector
// never formats a label or constructs a generator per decision: the FNV
// state of each "fault:<layer>:" prefix is hashed once at construction
// (rng.SeedHasher) and extended with the task/attempt digits per draw,
// and the draws come from one cached generator re-seeded per decision
// (rng.Reseeder, whose jump-ahead source makes a re-seed O(1): tens of
// ns where math/rand's Seed takes microseconds). The seeds are
// bit-for-bit the values rng.DeriveSeed(seed,
// "fault:<layer>:<taskID>:<attempt>") has always produced, and the draws
// the ones rand.New(rand.NewSource(seed)) yields, pinned by golden and
// equivalence tests.
type Injector struct {
	seed  int64
	cfg   Config
	stats Stats

	scratch     *rng.Reseeder
	hostPrefix  rng.SeedHasher
	dbPrefix    rng.SeedHasher
	netPrefix   rng.SeedHasher
	storPrefix  rng.SeedHasher
	retryPrefix rng.SeedHasher
}

// New builds an injector rooted at seed. The config is validated; an
// all-zero config is legal and injects nothing.
func New(seed int64, cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	base := rng.NewSeedHasher(seed)
	return &Injector{
		seed:        seed,
		cfg:         cfg,
		scratch:     rng.NewReseeder(),
		hostPrefix:  base.String("fault:" + LayerHost + ":"),
		dbPrefix:    base.String("fault:" + LayerDB + ":"),
		netPrefix:   base.String("fault:" + LayerNet + ":"),
		storPrefix:  base.String("fault:" + LayerStorage + ":"),
		retryPrefix: base.String("retry:"),
	}, nil
}

// Config returns the injector's configuration (zero value when nil).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Stats returns the injection counts so far (zero when nil).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

func (in *Injector) layerFor(name string) (Layer, *LayerStats, rng.SeedHasher) {
	switch name {
	case LayerHost:
		return in.cfg.Host, &in.stats.Host, in.hostPrefix
	case LayerDB:
		return in.cfg.DB, &in.stats.DB, in.dbPrefix
	case LayerNet:
		return in.cfg.Net, &in.stats.Net, in.netPrefix
	case LayerStorage:
		return in.cfg.Storage, &in.stats.Storage, in.storPrefix
	}
	return Layer{}, nil, rng.SeedHasher{}
}

// Decide returns the injection outcome for one interaction of task
// taskID's attempt (1-based) with the named layer, for an operation of
// the given kind. Nil injectors and all-zero layers return the zero
// Outcome without drawing anything. When a draw happens, the stream is
// derived fresh from "fault:<layer>:<taskID>:<attempt>" and consumed in
// a fixed order (failure first, then stall), so outcomes are a pure
// function of (seed, layer, taskID, attempt).
func (in *Injector) Decide(layer, kind string, taskID int64, attempt int) Outcome {
	if in == nil {
		return Outcome{}
	}
	lc, ls, prefix := in.layerFor(layer)
	if ls == nil {
		return Outcome{}
	}
	failP := lc.failProbFor(kind)
	if failP <= 0 && lc.Stall.Prob <= 0 {
		return Outcome{}
	}
	s := in.scratch.Reseed(prefix.Int(taskID).Byte(':').Int(int64(attempt)).Seed())
	ls.Decisions++
	var out Outcome
	if failP > 0 && s.Bernoulli(failP) {
		out.Fail = true
		ls.Failures++
	}
	if lc.Stall.Prob > 0 && s.Bernoulli(lc.Stall.Prob) {
		out.StallS = s.LogNormal(lc.Stall.MeanS, lc.Stall.CV)
		ls.Stalls++
		ls.StallSeconds += out.StallS
	}
	return out
}

// JitterU returns the deterministic uniform [0,1) jitter draw for task
// taskID's attempt-th retry backoff, from its own derived stream
// ("retry:<taskID>:<attempt>"). 0 on a nil injector.
func (in *Injector) JitterU(taskID int64, attempt int) float64 {
	if in == nil {
		return 0
	}
	return in.scratch.Reseed(in.retryPrefix.Int(taskID).Byte(':').Int(int64(attempt)).Seed()).Float64()
}

// RegisterMetrics exposes the injector's per-layer counters as pull
// probes under layer "faults". No-op on a nil injector or registry.
func (in *Injector) RegisterMetrics(reg *metrics.Registry) {
	if in == nil || reg == nil {
		return
	}
	for _, l := range []struct {
		name string
		ls   *LayerStats
	}{
		{LayerHost, &in.stats.Host},
		{LayerDB, &in.stats.DB},
		{LayerNet, &in.stats.Net},
		{LayerStorage, &in.stats.Storage},
	} {
		ls := l.ls
		reg.ScalarFunc("faults", l.name, "decisions", func() float64 { return float64(ls.Decisions) })
		reg.ScalarFunc("faults", l.name, "failures", func() float64 { return float64(ls.Failures) })
		reg.ScalarFunc("faults", l.name, "stalls", func() float64 { return float64(ls.Stalls) })
		reg.ScalarFunc("faults", l.name, "stall_s", func() float64 { return ls.StallSeconds })
	}
}
