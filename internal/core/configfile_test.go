package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
)

func TestLoadConfigDefaultsWhenEmpty(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"seed": 9}`))
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig(9)
	if cfg.Topology != def.Topology || cfg.Mgmt.Threads != def.Mgmt.Threads {
		t.Fatalf("defaults not preserved: %+v", cfg)
	}
	if cfg.Seed != 9 {
		t.Fatalf("seed = %d", cfg.Seed)
	}
}

const overridesSrc = `{
  "seed": 3,
  "topology": {"hosts": 8, "datastoreMBps": 500},
  "mgmt": {
    "threads": 4, "granularity": "coarse",
    "database": {"flushS": 0.5},
    "network": {"mbps": 2500}
  },
  "director": {"cells": 6, "fastProvisioning": false, "placement": "sticky-org", "orgQuotaVMs": 10},
  "storage": {"deltaWriteMB": 128},
  "costs": {"deploy": {"mgmtS": 9.5, "dbWrites": 12}},
  "costCV": 0,
  "record": false
}`

func TestLoadConfigOverrides(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(overridesSrc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.Hosts != 8 || cfg.Topology.DatastoreMBps != 500 {
		t.Fatalf("topology = %+v", cfg.Topology)
	}
	if cfg.Topology.Datastores != DefaultTopology().Datastores {
		t.Fatal("unset topology field lost default")
	}
	if cfg.Mgmt.Threads != 4 || cfg.Mgmt.Granularity != mgmt.GranularityCoarse {
		t.Fatalf("mgmt = %+v", cfg.Mgmt)
	}
	if cfg.Mgmt.Database == nil || cfg.Mgmt.Database.FlushS != 0.5 {
		t.Fatalf("database = %+v", cfg.Mgmt.Database)
	}
	if cfg.Mgmt.Database.Conns == 0 {
		t.Fatal("database defaults not filled")
	}
	if cfg.Mgmt.Network == nil || cfg.Mgmt.Network.MBps != 2500 {
		t.Fatalf("network = %+v", cfg.Mgmt.Network)
	}
	if cfg.Director.Cells != 6 || cfg.Director.FastProvisioning ||
		cfg.Director.Placement != clouddir.PlaceStickyOrg || cfg.Director.OrgQuotaVMs != 10 {
		t.Fatalf("director = %+v", cfg.Director)
	}
	if cfg.Storage.DeltaWriteMB != 128 || cfg.Storage.DeltaDiskGB != 1.0 {
		t.Fatalf("storage = %+v", cfg.Storage)
	}
	if cfg.Model == nil || cfg.Model.CV != 0 {
		t.Fatal("cost CV override lost")
	}
	c := cfg.Model.Stage[ops.KindDeploy]
	if c.MgmtS != 9.5 || c.DBWrites != 12 {
		t.Fatalf("cost override = %+v", c)
	}
	if c.CellS == 0 {
		t.Fatal("unset cost field lost default")
	}
	if cfg.Record {
		t.Fatal("record override lost")
	}
	// The config must actually build.
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLoadConfigPolicy(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"seed": 2, "policy": "binpack"}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != "binpack" {
		t.Fatalf("policy = %q", cfg.Policy)
	}
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	for _, src := range []string{
		`{"sead": 1}`,
		`{"policy": "zzz"}`,
		`{"mgmt": {"granularity": "weird"}}`,
		`{"director": {"placement": "x"}}`,
		`{"costs": {"zzz": {}}}`,
		`{"topology": {"hostz": 4}}`,
		`{"faults": {"host": {"fail_prob": 0.1, "bogus": 1}}}`,
		`{"faults": {"rate": 1.5}}`,
		// More shards than hosts loads, but no cloud builds from it:
		// New checks value ranges for every path.
		`{"topology": {"hosts": 2}, "plane": {"shards": 4}}`,
		`{"seed": 1} {"sead": 2}`,
	} {
		cfg, err := LoadConfig(strings.NewReader(src))
		if err == nil {
			cfg.Record = false
			_, err = New(cfg)
		}
		if err == nil {
			t.Errorf("%s accepted", src)
		}
	}
}

func TestLoadConfigErrorNamesKeyPath(t *testing.T) {
	for src, path := range map[string]string{
		`{"topology": {"hostz": 4}}`:          `"topology.hostz"`,
		`{"topology": {"hosts": "many"}}`:     `"topology.hosts"`,
		`{"faults": {"retry": {"tries": 2}}}`: `"faults.retry.tries"`,
		`{"mgmt": {"database": 3}}`:           `"mgmt.database"`,
	} {
		_, err := LoadConfig(strings.NewReader(src))
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %v does not name %s", src, err, path)
		}
	}
}

// An explicit zero sets zero; null keeps the current value.
func TestLoadConfigExplicitZero(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(
		`{"mgmt": {"database": {"groupWindowS": 0}}, "director": {"rebalanceBatch": 0, "cells": null}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mgmt.Database.GroupWindowS != 0 || cfg.Director.RebalanceBatch != 0 {
		t.Fatalf("explicit zeros dropped: %+v %+v", *cfg.Mgmt.Database, cfg.Director)
	}
	if cfg.Director.Cells != DefaultConfig(0).Director.Cells {
		t.Fatalf("null cells = %d, want the default", cfg.Director.Cells)
	}
}

// The lane kernel is gone; a scenario that still sets its keys must fail
// to load with an error naming the key rather than being silently
// ignored.
func TestLanesConfigWire(t *testing.T) {
	for _, key := range []string{"lanes", "laneWorkers"} {
		_, err := LoadConfig(strings.NewReader(`{"` + key + `": 4}`))
		if err == nil {
			t.Fatalf("removed key %q accepted", key)
		}
		if !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Fatalf("error for removed key %q does not name it: %v", key, err)
		}
	}
}

func TestDumpConfigRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteConfig(&buf, DefaultConfig(7)); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, DefaultConfig(7)) {
		t.Fatalf("default config drifted through the dump:\n%s", buf.String())
	}
}

// Set is the overlay {"a":{"b":value}}; a value that is not JSON is a
// string, and a failed Set leaves the Config unchanged.
func TestConfigSet(t *testing.T) {
	cfg := DefaultConfig(1)
	for _, kv := range [][2]string{
		{"topology.hosts", "8"}, {"director.placement", "sticky-org"}, {"policy", "binpack"},
		{"faults.rate", "0.2"}, {"faults.retry.maxAttempts", "2"}, {"reconcile.controllers", `["drift"]`},
	} {
		if err := cfg.Set(kv[0], kv[1]); err != nil {
			t.Fatalf("Set(%s, %s): %v", kv[0], kv[1], err)
		}
	}
	want, err := LoadConfig(strings.NewReader(`{"seed": 1, "topology": {"hosts": 8},
		"director": {"placement": "sticky-org"}, "policy": "binpack",
		"faults": {"rate": 0.2, "retry": {"maxAttempts": 2}}, "reconcile": {"controllers": ["drift"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("Set sequence = %+v\nwant %+v", cfg, want)
	}
	before := cfg
	if err := cfg.Set("faults.host", `{"fail_prob": "high"}`); err == nil {
		t.Fatal("bad layer accepted")
	}
	if !reflect.DeepEqual(cfg, before) {
		t.Fatal("failed Set changed the config")
	}
	if err := cfg.Set("faults", "null"); err != nil || cfg.Faults != nil || cfg.Mgmt.Retry != (mgmt.RetryPolicy{}) {
		t.Fatalf("faults=null left %+v / %+v (err %v)", cfg.Faults, cfg.Mgmt.Retry, err)
	}
	if before.Faults == nil || before.Faults.Host.FailProb != 0.2 {
		t.Fatal("Set wrote through a pointer the copy shares")
	}
}

// TestScenarioConfigsPinned pins the wire: every checked-in scenario and
// every LoadConfig input of the tests that predate the key table loads
// to the Config the struct-based loader of commit 7a075c1 produced,
// compared by configDigest.
func TestScenarioConfigsPinned(t *testing.T) {
	inputs := map[string]string{
		"seed9":     `{"seed": 9}`,
		"policy":    `{"seed": 2, "policy": "binpack"}`,
		"drs":       `{"drs": {"threshold": 0.1}}`,
		"dump7":     parentDump7,
		"overrides": overridesSrc,
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("glob: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		inputs[filepath.Base(p)] = string(b)
	}
	want := map[string]string{
		"default.json":        "a3b813e1d77de1b5528b63aa7993d867b81b3f49e941c9cc13c00c90728cfcaa",
		"drs-imbalance.json":  "17b821cd9bbaa85c46ee4a7036734154303a3edebe29c103671b1ff39a1a4c20",
		"fault-burst.json":    "5774a1a0f5a0279175065863b5e061b0804b6dd97dff467b3bddfbf543d0c27a",
		"paper-era.json":      "2a83e7cefea036a519d2558384df103aee80708cc3f5ae4276e46c9f3d407795",
		"sticky-tenants.json": "9513477cf68fd22035f19425c452ec2f1355bf904bb684bfa80144201d36c32b",
		"seed9":               "bba830560dc689927e81737705d6e49e49d883c0d8538f4a396610a5b94c6b5a",
		"policy":              "ad0e2228c8599092272be656f2f80fc24df6e1e0ed34625e7b3a9ad1c5194150",
		"drs":                 "57bacd3ec517147db39f85777676e2fb552e2d1a0d7eb4c828eea509d5c699ab",
		"dump7":               "9585fdbdf017490476a1af3a3f11b7cea0088156bb7ea99b486c758aef7973cf",
		"overrides":           "d0228d418086c5364a45a8499048160db33b4e61d8683879f80621a09f58c4ae",
	}
	if len(inputs) != len(want) {
		t.Fatalf("%d inputs, %d pinned digests: pin the new scenario", len(inputs), len(want))
	}
	for name, src := range inputs {
		cfg, err := LoadConfig(strings.NewReader(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := configDigest(cfg); got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
}

// configDigest is a canonical digest of a Config: its %+v rendering with
// the pointer fields dereferenced (fmt prints maps in key order).
func configDigest(c Config) string {
	ptrs := fmt.Sprintf("%+v|%+v|%+v|%+v|%+v",
		deref(c.Model), deref(c.Faults), deref(c.Reconcile), deref(c.Mgmt.Database), deref(c.Mgmt.Network))
	c.Model, c.Faults, c.Reconcile, c.Mgmt.Database, c.Mgmt.Network = nil, nil, nil, nil, nil
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v|%s", c, ptrs))))
}

func deref[T any](p *T) any {
	if p == nil {
		return nil
	}
	return *p
}

// parentDump7 is what -dump-config printed for seed 7 before the key
// table; it must still load.
const parentDump7 = `{
  "seed": 7,
  "topology": {"hosts": 32, "hostCPUMHz": 80000, "hostMemMB": 524288, "datastores": 8,
    "datastoreGB": 20000, "datastoreMBps": 300, "templates": 6, "templateDiskGB": 16,
    "templateMemMB": 2048, "templateCPUs": 2},
  "mgmt": {"threads": 16, "dbConns": 4, "maxInFlight": 96, "hostSlots": 8, "granularity": "entity"},
  "plane": {"shards": 1, "db": "shared", "coordWriteS": 0.05},
  "director": {"cells": 2, "cellThreads": 16, "fastProvisioning": true, "rebalanceThreshold": 0.15,
    "rebalanceCheckS": 3600, "rebalanceBatch": 4, "placement": "most-free"},
  "storage": {"deltaDiskGB": 1, "deltaWriteMB": 64, "maxChainLen": 30, "snapshotGB": 2},
  "record": true,
  "metrics": false
}`

// FuzzLoadConfig: LoadConfig never panics, and any scenario it accepts
// survives WriteConfig → LoadConfig unchanged.
func FuzzLoadConfig(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	for _, p := range paths {
		if b, err := os.ReadFile(p); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(overridesSrc))
	f.Add([]byte(`{"faults": {"rate": 0.1, "host": {"per_kind": {"deploy": 0.5}}, "retry": {"jitter": 0}},
		"reconcile": {"controllers": ["drift"], "backoff": {"baseS": 2}}, "drs": {}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := LoadConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteConfig(&buf, cfg); err != nil {
			t.Fatalf("WriteConfig: %v", err)
		}
		again, err := LoadConfig(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reload of the dump: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("dump round trip changed the config:\n%+v\n%+v\n%s", cfg, again, buf.String())
		}
	})
}
