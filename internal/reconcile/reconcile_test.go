package reconcile

import (
	"reflect"
	"testing"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/testfix"
)

// The backoff jitter draw must be a pure function of
// (seed, controller, key, attempt) with the exact rng.DeriveSeed label
// discipline the fault injector uses — pin the SeedHasher chain against
// the reference derivation.
func TestBackoffSeedMatchesDerive(t *testing.T) {
	rt := &runtime{
		prefix:  rng.NewSeedHasher(42).String("reconcile:drift:"),
		scratch: rng.NewReseeder(),
		pol:     DefaultBackoff(),
	}
	got := rt.prefix.String("vm:7").Byte(':').Int(3).Seed()
	want := rng.DeriveSeed(42, "reconcile:drift:vm:7:3")
	if got != want {
		t.Fatalf("hasher seed %d != DeriveSeed %d", got, want)
	}
	// Same identifiers, same delay; and the delay respects the policy
	// envelope base·mult^(n-1) · [1, 1+jitter], capped at MaxS.
	d1 := rt.backoffDelay("vm:7", 3)
	d2 := rt.backoffDelay("vm:7", 3)
	if d1 != d2 {
		t.Fatalf("backoff not deterministic: %v != %v", d1, d2)
	}
	if lo, hi := 4.0, 5.0; d1 < lo || d1 >= hi {
		t.Fatalf("attempt-3 delay %v outside [%v,%v)", d1, lo, hi)
	}
	if d := rt.backoffDelay("vm:7", 50); d > rt.pol.MaxS*(1+rt.pol.Jitter) {
		t.Fatalf("capped delay %v above max envelope", d)
	}
}

// enabled returns DefaultConfig running the named controllers, with mut
// applied on top.
func enabled(mut func(c *Config), controllers ...string) Config {
	c := DefaultConfig()
	c.Controllers = controllers
	mut(&c)
	return c
}

func TestConfigValidate(t *testing.T) {
	ok := func(mut func(c *Config)) Config { return enabled(mut, ControllerDrift) }
	cases := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"disabled zero value", Config{}, true},
		{"enabled defaults", ok(func(c *Config) {}), true},
		{"all controllers", ok(func(c *Config) { c.Controllers = ControllerNames() }), true},
		{"unknown controller", ok(func(c *Config) { c.Controllers = []string{"gc"} }), false},
		{"duplicate controller", ok(func(c *Config) { c.Controllers = []string{ControllerDrift, ControllerDrift} }), false},
		{"negative interval", ok(func(c *Config) { c.IntervalS = -1 }), false},
		{"zero interval", ok(func(c *Config) { c.IntervalS = 0 }), false},
		{"negative depth", ok(func(c *Config) { c.Depth = -1 }), false},
		{"zero depth", ok(func(c *Config) { c.Depth = 0 }), false},
		{"zero rate disables limiting", ok(func(c *Config) { c.RatePerS = 0 }), true},
		{"zero burst", ok(func(c *Config) { c.Burst = 0 }), false},
		{"zero max retries", ok(func(c *Config) { c.MaxRetries = 0 }), false},
		{"zero backoff", ok(func(c *Config) { c.Backoff = BackoffPolicy{} }), false},
		{"zero drift rate", ok(func(c *Config) { c.DriftRate = 0 }), true},
		{"zero fill fraction", ok(func(c *Config) { c.FillFraction = 0 }), false},
		{"negative rate", ok(func(c *Config) { c.RatePerS = -2 }), false},
		{"tiny burst", ok(func(c *Config) { c.Burst = 0.5 }), false},
		{"bad backoff", ok(func(c *Config) { c.Backoff.Mult = 0.5 }), false},
		{"drift rate over 1", ok(func(c *Config) { c.DriftRate = 1.5 }), false},
		{"fill fraction over 1", ok(func(c *Config) { c.FillFraction = 1.5 }), false},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.want {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.want)
		}
	}
}

// New takes the config as given: a zero knob is not silently replaced
// by its default but rejected by Validate.
func TestNewRejectsZeroKnobs(t *testing.T) {
	fx := testfix.New(testfix.Options{})
	mgr, err := mgmt.New(fx.Env, fx.Inv, fx.Pool, fx.Model, rng.Derive(1, "m"), mgmt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(fx.Env, mgr, 1, Config{Controllers: []string{ControllerDrift}}); err == nil {
		t.Fatal("New accepted a config with every knob zero")
	}
	p, err := New(fx.Env, mgr, 1, enabled(func(*Config) {}, ControllerDrift))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Config(), enabled(func(*Config) {}, ControllerDrift); !reflect.DeepEqual(got, want) {
		t.Fatalf("Config() = %+v, want the config passed in %+v", got, want)
	}
}

type fixture struct {
	fx  *testfix.Fix
	mgr *mgmt.Manager
	rec *Plane
}

func newFixture(t *testing.T, opts testfix.Options, cfg Config) *fixture {
	t.Helper()
	fx := testfix.New(opts)
	mgr, err := mgmt.New(fx.Env, fx.Inv, fx.Pool, fx.Model, rng.Derive(1, "m"), mgmt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := New(fx.Env, mgr, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{fx: fx, mgr: mgr, rec: rec}
}

// deploy places n VMs round-robin over hosts and datastores and powers
// them on, blocking until done.
func (f *fixture) deploy(t *testing.T, n int, powerOn bool) {
	t.Helper()
	f.fx.Env.Go("prep", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			host := f.fx.Hosts[i%len(f.fx.Hosts)]
			ds := f.fx.DS[i%len(f.fx.DS)]
			vm, task := f.mgr.DeployVM(p, "vm", f.fx.Tpl, host, ds, ops.FullClone, mgmt.ReqCtx{Org: "o"})
			if task.Err != nil {
				t.Errorf("deploy: %v", task.Err)
				return
			}
			if powerOn {
				f.mgr.PowerOn(p, vm, mgmt.ReqCtx{Org: "o"})
			}
		}
	})
	f.fx.Env.Run(sim.Forever)
}

func TestDriftControllerCorrectsEveryVM(t *testing.T) {
	f := newFixture(t, testfix.Options{}, enabled(func(c *Config) {
		c.IntervalS, c.Depth, c.RatePerS, c.Burst = 100, 2, 4, 4
		c.DriftRate = 1 // every VM drifts every epoch
	}, ControllerDrift))
	f.deploy(t, 6, true)
	f.rec.Start()
	f.fx.Env.Run(f.fx.Env.Now() + 250) // two resync epochs
	st := f.rec.Stats()
	if len(st) != 1 || st[0].Controller != ControllerDrift {
		t.Fatalf("stats = %+v", st)
	}
	if st[0].Runs != 12 || st[0].Errors != 0 {
		t.Fatalf("runs = %d errors = %d, want 12 runs (6 VMs x 2 epochs)", st[0].Runs, st[0].Errors)
	}
	if st[0].BusyS <= 0 {
		t.Fatal("no action time accrued")
	}
	if err := f.fx.Inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogControllerRepublishesTemplates(t *testing.T) {
	f := newFixture(t, testfix.Options{}, enabled(func(c *Config) {
		c.IntervalS, c.Depth = 50, 1
	}, ControllerCatalog))
	f.rec.Start()
	f.fx.Env.Run(175) // three epochs, one template each
	st := f.rec.Stats()
	if st[0].Runs != 3 || st[0].Errors != 0 {
		t.Fatalf("stats = %+v, want 3 clean publishes", st[0])
	}
}

// With one overfull datastore and nowhere to move, every rebalance
// attempt fails; retries back off and the key drops at MaxRetries.
func TestRebalanceRetriesThenDrops(t *testing.T) {
	f := newFixture(t, testfix.Options{Datastores: 1, DatastoreGB: 100, TemplateGB: 16},
		enabled(func(c *Config) {
			c.IntervalS, c.Depth, c.RatePerS, c.Burst = 1000, 1, 8, 8
			c.MaxRetries, c.Backoff = 2, BackoffPolicy{BaseS: 1, MaxS: 4, Mult: 2, Jitter: 0.25}
			c.FillFraction = 0.5
		}, ControllerRebalance))
	f.deploy(t, 5, false) // 5 full clones: 96 GB of 100 → threshold 50%
	f.rec.Start()
	f.fx.Env.Run(f.fx.Env.Now() + 1100) // one resync plus backoff tail
	st := f.rec.Stats()[0]
	if st.Errors == 0 || st.Retries == 0 || st.Drops == 0 {
		t.Fatalf("stats = %+v, want errors, retries, and drops", st)
	}
	if st.Drops != 5 {
		t.Fatalf("drops = %d, want all 5 stuck VMs dropped", st.Drops)
	}
}

// With a second, empty datastore the herd drains until the source dips
// below threshold; later arrivals converge without moving.
func TestRebalanceDrainsOverfullDatastore(t *testing.T) {
	f := newFixture(t, testfix.Options{Datastores: 2, DatastoreGB: 100, TemplateGB: 16},
		enabled(func(c *Config) {
			c.IntervalS, c.Depth, c.RatePerS, c.Burst = 200, 2, 8, 8
			c.FillFraction = 0.6
		}, ControllerRebalance))
	// All 4 VMs on DS[0] as full clones: 64 GB + 16 GB template base = 80%.
	f.fx.Env.Go("prep", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			_, task := f.mgr.DeployVM(p, "vm", f.fx.Tpl, f.fx.Hosts[i%2], f.fx.DS[0], ops.FullClone, mgmt.ReqCtx{Org: "o"})
			if task.Err != nil {
				t.Errorf("deploy: %v", task.Err)
			}
		}
	})
	f.fx.Env.Run(sim.Forever)
	src := f.fx.DS[0]
	if src.FillFraction() < 0.6 {
		t.Fatalf("setup fill = %v", src.FillFraction())
	}
	f.rec.Start()
	f.fx.Env.Run(f.fx.Env.Now() + 2000)
	if src.FillFraction() >= 0.6 {
		t.Fatalf("source never drained: fill = %v", src.FillFraction())
	}
	st := f.rec.Stats()[0]
	if st.Runs == 0 {
		t.Fatal("rebalancer never ran")
	}
	if err := f.fx.Inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMarkDriftedForcesImmediateWork(t *testing.T) {
	f := newFixture(t, testfix.Options{}, enabled(func(c *Config) {
		c.IntervalS = 1e6 // resync effectively never fires
		c.Depth, c.DriftRate = 2, 0
	}, ControllerDrift))
	f.deploy(t, 4, true)
	f.rec.Start()
	if n := f.rec.MarkDrifted(f.fx.Inv.VMs()); n != 4 {
		t.Fatalf("marked %d, want 4", n)
	}
	f.fx.Env.Run(f.fx.Env.Now() + 500)
	if st := f.rec.Stats()[0]; st.Runs != 4 {
		t.Fatalf("runs = %d, want 4 storm corrections", st.Runs)
	}
}

func TestMarkDriftedWithoutDriftController(t *testing.T) {
	f := newFixture(t, testfix.Options{}, enabled(func(*Config) {}, ControllerCatalog))
	if n := f.rec.MarkDrifted([]inventory.ID{1, 2}); n != 0 {
		t.Fatalf("marked %d on a plane without the drift controller", n)
	}
}

func TestDisabledPlaneIsInert(t *testing.T) {
	f := newFixture(t, testfix.Options{}, Config{})
	f.deploy(t, 2, true)
	f.rec.Start() // no controllers: spawns nothing
	f.fx.Env.Run(10000)
	if st := f.rec.Stats(); st != nil {
		t.Fatalf("disabled plane has stats %+v", st)
	}
}

// Two identical runs must agree exactly — queue order, throttle waits,
// backoff draws, the lot.
func TestRunsAreDeterministic(t *testing.T) {
	run := func() []Stats {
		f := newFixture(t, testfix.Options{Datastores: 2, DatastoreGB: 150, TemplateGB: 16},
			enabled(func(c *Config) {
				c.IntervalS, c.Depth, c.RatePerS, c.Burst = 60, 2, 2, 4
				c.DriftRate, c.FillFraction = 0.5, 0.7
			}, ControllerNames()...))
		f.deploy(t, 8, true)
		f.rec.Start()
		f.fx.Env.Run(f.fx.Env.Now() + 600)
		return f.rec.Stats()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
	if a[0].Runs == 0 {
		t.Fatal("drift controller never ran")
	}
}
