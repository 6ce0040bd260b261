package core

// JSON scenarios and their one key table. Every knob a scenario can set
// is an entry of configKeys, addressed by its JSON key path
// ("topology.hosts", "faults.retry.maxAttempts"). LoadConfig (a
// scenarios/*.json file), Config.Set (a CLI -set key=value or one
// mcpsweep -vary point) and WriteConfig (-dump-config) all walk that
// table, so they cannot disagree about a key.
//
// Decoding is strict: an unknown key at any depth, a value of the wrong
// JSON type or an unknown name fails with an error naming the key path.
// An explicit value, zero included, sets that value; null keeps the
// current one. An optional block (drs, faults, faults.retry, reconcile,
// mgmt.database, mgmt.network) installs its defaults when it appears
// in a Config that lacks it, and null removes it. Value ranges are not
// checked here, with one exception (faults.rate): New checks them,
// once, for every path. Operation names (not enum values) key the cost
// overrides.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"sort"
	"strings"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/drs"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/mgmtdb"
	"cloudmcp/internal/netsim"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/reconcile"
)

// configKey is one entry of the scenario key table.
type configKey struct {
	path  string
	block bool // a JSON object grouping the keys below it
	// set decodes a non-null leaf value into c. For an optional block
	// it runs on any value: null removes the block, anything else
	// installs it (defaults, or a private copy of the current block).
	set func(c *Config, raw json.RawMessage) error
	// get returns the current value for WriteConfig; false omits the
	// key (an absent optional block with everything under it). nil
	// marks a write-only key.
	get func(c *Config) (any, bool)
}

var configKeys = []configKey{
	leaf("seed", func(c *Config) *int64 { return &c.Seed }),
	enum("policy", func(c *Config) *string { return &c.Policy }, append([]string{""}, policy.Names()...)...),

	block("topology"),
	leaf("topology.hosts", func(c *Config) *int { return &c.Topology.Hosts }),
	leaf("topology.hostCPUMHz", func(c *Config) *int { return &c.Topology.HostCPUMHz }),
	leaf("topology.hostMemMB", func(c *Config) *int { return &c.Topology.HostMemMB }),
	leaf("topology.datastores", func(c *Config) *int { return &c.Topology.Datastores }),
	leaf("topology.datastoreGB", func(c *Config) *float64 { return &c.Topology.DatastoreGB }),
	leaf("topology.datastoreMBps", func(c *Config) *float64 { return &c.Topology.DatastoreMBps }),
	leaf("topology.templates", func(c *Config) *int { return &c.Topology.Templates }),
	leaf("topology.templateDiskGB", func(c *Config) *float64 { return &c.Topology.TemplateDiskGB }),
	leaf("topology.templateMemMB", func(c *Config) *int { return &c.Topology.TemplateMemMB }),
	leaf("topology.templateCPUs", func(c *Config) *int { return &c.Topology.TemplateCPUs }),

	block("mgmt"),
	leaf("mgmt.threads", func(c *Config) *int { return &c.Mgmt.Threads }),
	leaf("mgmt.dbConns", func(c *Config) *int { return &c.Mgmt.DBConns }),
	leaf("mgmt.maxInFlight", func(c *Config) *int { return &c.Mgmt.MaxInFlight }),
	leaf("mgmt.hostSlots", func(c *Config) *int { return &c.Mgmt.HostSlots }),
	enum("mgmt.granularity", func(c *Config) *mgmt.LockGranularity { return &c.Mgmt.Granularity },
		mgmt.GranularityCoarse, mgmt.GranularityHost, mgmt.GranularityEntity),
	optional("mgmt.database", func(c *Config) bool { return c.Mgmt.Database != nil },
		func(c *Config) { own(&c.Mgmt.Database, mgmtdb.DefaultConfig()) },
		func(c *Config) { c.Mgmt.Database = nil }),
	leaf("mgmt.database.conns", func(c *Config) *int { return &c.Mgmt.Database.Conns }),
	leaf("mgmt.database.writeS", func(c *Config) *float64 { return &c.Mgmt.Database.WriteS }),
	leaf("mgmt.database.flushS", func(c *Config) *float64 { return &c.Mgmt.Database.FlushS }),
	leaf("mgmt.database.groupWindowS", func(c *Config) *float64 { return &c.Mgmt.Database.GroupWindowS }),
	leaf("mgmt.database.groupRows", func(c *Config) *bool { return &c.Mgmt.Database.GroupRows }),
	optional("mgmt.network", func(c *Config) bool { return c.Mgmt.Network != nil },
		func(c *Config) { own(&c.Mgmt.Network, netsim.DefaultConfig()) },
		func(c *Config) { c.Mgmt.Network = nil }),
	leaf("mgmt.network.mbps", func(c *Config) *float64 { return &c.Mgmt.Network.MBps }),

	block("plane"),
	leaf("plane.shards", func(c *Config) *int { return &c.Plane.Shards }),
	enum("plane.db", func(c *Config) *plane.DBMode { return &c.Plane.DB }, plane.DBShared, plane.DBPerShard),
	leaf("plane.coordWriteS", func(c *Config) *float64 { return &c.Plane.CoordWriteS }),

	block("director"),
	leaf("director.cells", func(c *Config) *int { return &c.Director.Cells }),
	leaf("director.cellThreads", func(c *Config) *int { return &c.Director.CellThreads }),
	leaf("director.fastProvisioning", func(c *Config) *bool { return &c.Director.FastProvisioning }),
	leaf("director.maxChainLen", func(c *Config) *int { return &c.Director.MaxChainLen }),
	leaf("director.rebalanceThreshold", func(c *Config) *float64 { return &c.Director.RebalanceThreshold }),
	leaf("director.rebalanceCheckS", func(c *Config) *float64 { return &c.Director.RebalanceCheckS }),
	leaf("director.rebalanceBatch", func(c *Config) *int { return &c.Director.RebalanceBatch }),
	leaf("director.leaseS", func(c *Config) *float64 { return &c.Director.LeaseS }),
	enum("director.placement", func(c *Config) *clouddir.PlacementPolicy { return &c.Director.Placement },
		clouddir.PlaceMostFree, clouddir.PlaceStickyOrg),
	leaf("director.orgQuotaVMs", func(c *Config) *int { return &c.Director.OrgQuotaVMs }),

	block("storage"),
	leaf("storage.deltaDiskGB", func(c *Config) *float64 { return &c.Storage.DeltaDiskGB }),
	leaf("storage.deltaWriteMB", func(c *Config) *float64 { return &c.Storage.DeltaWriteMB }),
	leaf("storage.maxChainLen", func(c *Config) *int { return &c.Storage.MaxChainLen }),
	leaf("storage.snapshotGB", func(c *Config) *float64 { return &c.Storage.SnapshotGB }),

	optional("drs", func(c *Config) bool { return c.DRS.Threshold != 0 || c.DRS.CheckS != 0 || c.DRS.Batch != 0 },
		func(c *Config) {
			if c.DRS.Threshold == 0 && c.DRS.CheckS == 0 && c.DRS.Batch == 0 {
				c.DRS = drs.DefaultConfig()
			}
		},
		func(c *Config) { c.DRS = drs.Config{} }),
	leaf("drs.threshold", func(c *Config) *float64 { return &c.DRS.Threshold }),
	leaf("drs.checkS", func(c *Config) *float64 { return &c.DRS.CheckS }),
	leaf("drs.batch", func(c *Config) *int { return &c.DRS.Batch }),

	// costs overrides per-operation stage costs by operation name
	// (ops.Kind String() names, e.g. "deploy", "powerOn"); costCV
	// overrides the cost model's coefficient of variation. Either one
	// installs a private copy of the cost model.
	{path: "costs", set: setCosts, get: func(c *Config) (any, bool) {
		if c.Model == nil {
			return nil, false
		}
		stages := make(map[string]ops.StageCost, len(c.Model.Stage))
		for k, s := range c.Model.Stage {
			stages[k.String()] = s
		}
		return stages, true
	}},
	{path: "costCV",
		set: func(c *Config, raw json.RawMessage) error {
			var cv float64
			if err := decodeStrict(raw, &cv); err != nil {
				return err
			}
			ownModel(c).CV = cv
			return nil
		},
		get: func(c *Config) (any, bool) {
			if c.Model == nil {
				return nil, false
			}
			return c.Model.CV, true
		}},

	leaf("record", func(c *Config) *bool { return &c.Record }),
	leaf("metrics", func(c *Config) *bool { return &c.Metrics }),

	// faults: rate reseeds every layer from faults.Preset; the layer
	// keys after it then replace whole layers. retry shapes the
	// manager's retry policy (mgmt.RetryPolicy).
	optional("faults", func(c *Config) bool { return c.Faults != nil },
		func(c *Config) { own(&c.Faults, faults.Preset(0)) },
		func(c *Config) { c.Faults, c.Mgmt.Retry = nil, mgmt.RetryPolicy{} }),
	{path: "faults.rate", set: func(c *Config, raw json.RawMessage) error {
		var rate float64
		if err := decodeStrict(raw, &rate); err != nil {
			return err
		}
		// The rate is consumed here, not kept in the Config, so this
		// is the one range check New cannot make: Preset would clamp.
		if rate < 0 || rate > 1 {
			return fmt.Errorf("rate %g outside [0,1]", rate)
		}
		*c.Faults = faults.Preset(rate)
		return nil
	}},
	layer("faults.host", func(c *Config) *faults.Layer { return &c.Faults.Host }),
	layer("faults.db", func(c *Config) *faults.Layer { return &c.Faults.DB }),
	layer("faults.net", func(c *Config) *faults.Layer { return &c.Faults.Net }),
	layer("faults.storage", func(c *Config) *faults.Layer { return &c.Faults.Storage }),
	optional("faults.retry", func(c *Config) bool { return c.Mgmt.Retry != (mgmt.RetryPolicy{}) },
		func(c *Config) {
			if c.Mgmt.Retry == (mgmt.RetryPolicy{}) {
				c.Mgmt.Retry = mgmt.DefaultRetryPolicy()
			}
		},
		func(c *Config) { c.Mgmt.Retry = mgmt.RetryPolicy{} }),
	leaf("faults.retry.maxAttempts", func(c *Config) *int { return &c.Mgmt.Retry.MaxAttempts }),
	leaf("faults.retry.baseBackoffS", func(c *Config) *float64 { return &c.Mgmt.Retry.BaseBackoff }),
	leaf("faults.retry.multiplier", func(c *Config) *float64 { return &c.Mgmt.Retry.Multiplier }),
	leaf("faults.retry.jitter", func(c *Config) *float64 { return &c.Mgmt.Retry.DeterministicJitter }),
	leaf("faults.retry.deadlineS", func(c *Config) *float64 { return &c.Mgmt.Retry.Deadline }),

	// reconcile: the block alone runs every controller; an empty
	// controller list also means all of them.
	optional("reconcile", func(c *Config) bool { return c.Reconcile != nil },
		func(c *Config) {
			def := reconcile.DefaultConfig()
			def.Controllers = reconcile.ControllerNames()
			own(&c.Reconcile, def)
		},
		func(c *Config) { c.Reconcile = nil }),
	{path: "reconcile.controllers",
		set: func(c *Config, raw json.RawMessage) error {
			var names []string
			if err := decodeStrict(raw, &names); err != nil {
				return err
			}
			if len(names) == 0 {
				names = reconcile.ControllerNames()
			}
			c.Reconcile.Controllers = names
			return nil
		},
		get: func(c *Config) (any, bool) { return c.Reconcile.Controllers, true }},
	leaf("reconcile.intervalS", func(c *Config) *float64 { return &c.Reconcile.IntervalS }),
	leaf("reconcile.depth", func(c *Config) *int { return &c.Reconcile.Depth }),
	leaf("reconcile.ratePerS", func(c *Config) *float64 { return &c.Reconcile.RatePerS }),
	leaf("reconcile.burst", func(c *Config) *float64 { return &c.Reconcile.Burst }),
	leaf("reconcile.maxRetries", func(c *Config) *int { return &c.Reconcile.MaxRetries }),
	leaf("reconcile.backoff", func(c *Config) *reconcile.BackoffPolicy { return &c.Reconcile.Backoff }),
	leaf("reconcile.driftRate", func(c *Config) *float64 { return &c.Reconcile.DriftRate }),
	leaf("reconcile.fillFraction", func(c *Config) *float64 { return &c.Reconcile.FillFraction }),
}

// leaf is a key whose value decodes strictly into *ptr(c), replacing it.
func leaf[T any](path string, ptr func(*Config) *T) configKey {
	return configKey{path: path,
		set: func(c *Config, raw json.RawMessage) error {
			var v T
			if err := decodeStrict(raw, &v); err != nil {
				return err
			}
			*ptr(c) = v
			return nil
		},
		get: func(c *Config) (any, bool) { return *ptr(c), true },
	}
}

// layer is a whole fault-injection layer. An empty per-kind map decodes
// to nil, the form WriteConfig's output reloads to.
func layer(path string, ptr func(*Config) *faults.Layer) configKey {
	k := leaf(path, ptr)
	set := k.set
	k.set = func(c *Config, raw json.RawMessage) error {
		err := set(c, raw)
		if l := ptr(c); len(l.PerKind) == 0 {
			l.PerKind = nil
		}
		return err
	}
	return k
}

// enum is a key whose JSON string names one of vals (by fmt.Sprint).
func enum[T comparable](path string, ptr func(*Config) *T, vals ...T) configKey {
	return configKey{path: path,
		set: func(c *Config, raw json.RawMessage) error {
			var s string
			if err := decodeStrict(raw, &s); err != nil {
				return err
			}
			var names []string
			for _, v := range vals {
				if fmt.Sprint(v) == s {
					*ptr(c) = v
					return nil
				}
				names = append(names, fmt.Sprintf("%q", fmt.Sprint(v)))
			}
			return fmt.Errorf("unknown value %q (want %s)", s, strings.Join(names, ", "))
		},
		get: func(c *Config) (any, bool) { return fmt.Sprint(*ptr(c)), true },
	}
}

// block groups keys that every Config has.
func block(path string) configKey {
	return configKey{path: path, block: true, get: func(*Config) (any, bool) { return nil, true }}
}

// optional groups the keys of a block a Config may lack.
func optional(path string, present func(*Config) bool, install, remove func(*Config)) configKey {
	return configKey{path: path, block: true,
		set: func(c *Config, raw json.RawMessage) error {
			if isNull(raw) {
				remove(c)
			} else {
				install(c)
			}
			return nil
		},
		get: func(c *Config) (any, bool) { return nil, present(c) },
	}
}

// own points *p at a private copy of the current block, or of def when
// there is none, so setting a key never writes through a pointer that
// another Config shares.
func own[T any](p **T, def T) {
	if *p != nil {
		def = **p
	}
	*p = &def
}

// ownModel gives c a private copy of its cost model (the default model
// when it has none) and returns it.
func ownModel(c *Config) *ops.CostModel {
	base := c.Model
	if base == nil {
		base = ops.DefaultCostModel()
	}
	m := *base
	m.Stage = maps.Clone(base.Stage)
	c.Model = &m
	return &m
}

func setCosts(c *Config, raw json.RawMessage) error {
	var over map[string]json.RawMessage
	if err := decodeStrict(raw, &over); err != nil {
		return err
	}
	if len(over) == 0 {
		return nil
	}
	m := ownModel(c)
	for _, name := range sortedKeys(over) {
		kind, err := ops.ParseKind(name)
		if err != nil {
			return err
		}
		stage := m.Stage[kind]
		if err := decodeStrict(over[name], &stage); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m.Stage[kind] = stage
	}
	return nil
}

// decodeStrict decodes one JSON value into v, rejecting unknown fields.
func decodeStrict(raw json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func isNull(raw json.RawMessage) bool { return string(bytes.TrimSpace(raw)) == "null" }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// splitKey splits a key path into its parent block's path and its name.
func splitKey(path string) (parent, name string) {
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		return path[:i], path[i+1:]
	}
	return "", path
}

// overlay applies one JSON object to c through the key table. It is
// all-or-nothing: on error c is unchanged.
func (c *Config) overlay(raw json.RawMessage) error {
	next := *c
	if err := walk(&next, "", raw); err != nil {
		return err
	}
	*c = next
	return nil
}

// walk applies the JSON object raw, found at key path prefix, in table
// order. Names match as encoding/json matches struct fields: exactly,
// or else case-insensitively.
func walk(c *Config, prefix string, raw json.RawMessage) error {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		if prefix == "" {
			return fmt.Errorf("core: parse scenario: %w", err)
		}
		return fmt.Errorf("core: scenario key %q: want an object: %w", prefix, err)
	}
	used := make(map[string]bool, len(obj))
	for _, k := range configKeys {
		parent, name := splitKey(k.path)
		if parent != prefix {
			continue
		}
		if _, ok := obj[name]; !ok {
			for _, n := range sortedKeys(obj) {
				if !used[n] && strings.EqualFold(n, name) {
					name = n
					break
				}
			}
		}
		v, ok := obj[name]
		if !ok {
			continue
		}
		used[name] = true
		if k.set != nil && (k.block || !isNull(v)) {
			if err := k.set(c, v); err != nil {
				return fmt.Errorf("core: scenario key %q: %w", k.path, err)
			}
		}
		if k.block && !isNull(v) {
			if err := walk(c, k.path, v); err != nil {
				return err
			}
		}
	}
	for _, n := range sortedKeys(obj) {
		if !used[n] {
			if prefix != "" {
				n = prefix + "." + n
			}
			return fmt.Errorf("core: unknown scenario key %q", n)
		}
	}
	return nil
}

// LoadConfig reads one JSON scenario object and applies it over
// DefaultConfig. Unknown keys and trailing data after the object are
// rejected so typos in scenario files fail loudly.
func LoadConfig(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return Config{}, fmt.Errorf("core: parse scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, fmt.Errorf("core: parse scenario: trailing data after the scenario object")
	}
	cfg := DefaultConfig(0)
	if err := cfg.overlay(raw); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// LoadConfigFile is LoadConfig on the named file.
func LoadConfigFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return LoadConfig(f)
}

// Set applies one key=value assignment. key is a key path as
// WriteConfig prints it; value is JSON, or a bare string when it does
// not parse as JSON. Setting "a.b" to v is exactly loading the overlay
// {"a":{"b":v}} on top of c.
func (c *Config) Set(key, value string) error {
	raw := []byte(value)
	if !json.Valid(raw) {
		raw, _ = json.Marshal(value)
	}
	parts := strings.Split(key, ".")
	for i := len(parts) - 1; i >= 0; i-- {
		name, _ := json.Marshal(parts[i])
		raw = []byte(fmt.Sprintf("{%s:%s}", name, raw))
	}
	return c.overlay(raw)
}

// Assignments is a repeatable -set key=value flag.
type Assignments []string

func (a *Assignments) String() string { return strings.Join(*a, " ") }

// Set records one assignment; Apply checks its key and value.
func (a *Assignments) Set(s string) error {
	if !strings.Contains(s, "=") {
		return fmt.Errorf("want key=value, got %q", s)
	}
	*a = append(*a, s)
	return nil
}

// Apply sets every assignment on c, in order.
func (a Assignments) Apply(c *Config) error {
	for _, s := range a {
		key, value, _ := strings.Cut(s, "=")
		if err := c.Set(key, value); err != nil {
			return fmt.Errorf("-set %s: %w", s, err)
		}
	}
	return nil
}

// ConfigFromFlags assembles a command's Config: the scenario file at
// path (DefaultConfig(1) when path is empty), then each alias flag of
// fs given explicitly on the command line, then sets in order. The
// aliases are -seed (seed), -shards (plane.shards), -policy (policy),
// -metrics (metrics), -faults and -fault-rate (faults.rate; -faults
// alone uses -fault-rate's default, -faults=false removes the block)
// and -reconcile (the reconcile block with its defaults, or none).
func ConfigFromFlags(fs *flag.FlagSet, path string, sets Assignments) (Config, error) {
	cfg := DefaultConfig(1)
	if path != "" {
		var err error
		if cfg, err = LoadConfigFile(path); err != nil {
			return Config{}, err
		}
	}
	given := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	value := func(name string) string { return fs.Lookup(name).Value.String() }
	var aliases [][3]string // flag, key, value
	for _, a := range [][2]string{{"seed", "seed"}, {"shards", "plane.shards"}, {"policy", "policy"}, {"metrics", "metrics"}} {
		if given[a[0]] {
			aliases = append(aliases, [3]string{a[0], a[1], value(a[0])})
		}
	}
	if given["faults"] || given["fault-rate"] {
		v := "null"
		if given["fault-rate"] || value("faults") == "true" {
			v = `{"rate":` + value("fault-rate") + `}`
		}
		aliases = append(aliases, [3]string{"faults", "faults", v})
	}
	if given["reconcile"] {
		v := "null"
		if value("reconcile") == "true" {
			v = "{}"
		}
		aliases = append(aliases, [3]string{"reconcile", "reconcile", v})
	}
	for _, a := range aliases {
		if err := cfg.Set(a[1], a[2]); err != nil {
			return Config{}, fmt.Errorf("-%s: %w", a[0], err)
		}
	}
	return cfg, sets.Apply(&cfg)
}

// object is a JSON object that keeps its keys in insertion order.
type object struct {
	keys []string
	vals []any
}

func (o *object) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range o.keys {
		if i > 0 {
			b.WriteByte(',')
		}
		kb, _ := json.Marshal(k)
		vb, err := json.Marshal(o.vals[i])
		if err != nil {
			return nil, err
		}
		b.Write(kb)
		b.WriteByte(':')
		b.Write(vb)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// WriteConfig writes c as an indented scenario: every key's current
// value in table order, an optional block only when c has it.
// LoadConfig of the output reproduces c.
func WriteConfig(w io.Writer, c Config) error {
	objs := map[string]*object{"": {}}
	for _, k := range configKeys {
		parent, name := splitKey(k.path)
		o, ok := objs[parent]
		if !ok || k.get == nil {
			continue
		}
		v, ok := k.get(&c)
		if !ok {
			continue
		}
		if k.block {
			sub := &object{}
			objs[k.path] = sub
			v = sub
		}
		o.keys = append(o.keys, name)
		o.vals = append(o.vals, v)
	}
	b, err := json.MarshalIndent(objs[""], "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
