package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cloudmcp/internal/core"
)

// errWriter fails every write — the shape of a closed pipe or full
// disk. Both output formats must propagate it so mcpsweep exits
// non-zero instead of silently truncating the grid.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

func sampleRows() ([]string, []row) {
	headers := []string{"cells", "deploys/h", "mean lat s", "p95 lat s", "errors"}
	rows := []row{
		{values: []string{"1"}, res: core.ClosedLoopResult{Deploys: 10, DeploysPerHour: 60, MeanLatencyS: 30, P95LatencyS: 55}},
		{values: []string{"2"}, res: core.ClosedLoopResult{Deploys: 0}}, // zero-deploy point: n/a latency
	}
	return headers, rows
}

func TestRenderRowsPropagatesWriteError(t *testing.T) {
	headers, rows := sampleRows()
	for _, format := range []string{"ascii", "csv"} {
		if err := renderRows(errWriter{}, format, "t", headers, rows); err == nil {
			t.Fatalf("%s render on failing writer = nil, want error", format)
		}
	}
}

func TestRenderRowsCSV(t *testing.T) {
	headers, rows := sampleRows()
	var buf bytes.Buffer
	if err := renderRows(&buf, "csv", "t", headers, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d csv lines, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != "cells,deploys/h,mean lat s,p95 lat s,errors" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "n/a") {
		t.Fatalf("zero-deploy row %q should render latency as n/a", lines[2])
	}
}

func TestRenderRowsASCII(t *testing.T) {
	headers, rows := sampleRows()
	var buf bytes.Buffer
	if err := renderRows(&buf, "ascii", "title-here", headers, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"title-here", "deploys/h", "n/a"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ascii output missing %q:\n%s", want, out)
		}
	}
}

// dumped flattens c's -dump-config output: every key path, at every
// depth, to its compacted JSON value.
func dumped(t *testing.T, c core.Config) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteConfig(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	var flatten func(prefix string, raw json.RawMessage)
	flatten = func(prefix string, raw json.RawMessage) {
		var obj map[string]json.RawMessage
		if json.Unmarshal(raw, &obj) != nil {
			return
		}
		for name, v := range obj {
			path := strings.TrimPrefix(prefix+"."+name, ".")
			var compact bytes.Buffer
			if err := json.Compact(&compact, v); err != nil {
				t.Fatal(err)
			}
			out[path] = compact.String()
			flatten(path, v)
		}
	}
	flatten("", buf.Bytes())
	return out
}

// Every key -dump-config prints goes through -set and -vary: giving a
// default Config the value the dump shows for a key path reproduces
// that value in the new dump, and a -vary list of it splits and applies
// exactly as -set does. Every number and bool in the dump is first made
// distinct from its default, so a key wired to the wrong field fails.
func TestEveryDumpedKeySetsAndVaries(t *testing.T) {
	full, err := core.LoadConfig(strings.NewReader(`{"policy": "binpack",
		"mgmt": {"database": {}, "network": {}}, "drs": {}, "costs": {"deploy": {}},
		"faults": {"rate": 0.1, "retry": {}}, "reconcile": {"controllers": ["drift", "catalog"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	base := dumped(t, full)
	keys := make([]string, 0, len(base))
	for key := range base {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for i, key := range keys {
		val := base[key]
		if val == "true" || val == "false" {
			val = strconv.FormatBool(val == "false")
		} else if _, err := strconv.ParseFloat(val, 64); err == nil {
			val = strconv.Itoa(7001 + i)
		} else {
			continue
		}
		if err := full.Set(key, val); err != nil {
			t.Fatalf("-set %s=%s: %v", key, val, err)
		}
	}
	want := dumped(t, full)
	for _, key := range []string{"drs.batch", "costs.deploy.mgmtS", "faults.retry.jitter", "mgmt.network.mbps", "reconcile.backoff.mult"} {
		if _, ok := want[key]; !ok {
			t.Fatalf("the dump of a config with every block lacks %s", key)
		}
	}
	for key, val := range want {
		set := core.DefaultConfig(1)
		if err := set.Set(key, val); err != nil {
			t.Fatalf("-set %s=%s: %v", key, val, err)
		}
		if got := dumped(t, set)[key]; got != val {
			t.Fatalf("-set %s=%s dumps back as %s", key, val, got)
		}
		var vary varyFlag
		if err := vary.Set(key + "=" + val + "," + val); err != nil {
			t.Fatalf("-vary %s: %v", key, err)
		}
		spec := vary.specs[0]
		if len(spec.values) != 2 || spec.values[0] != val || spec.values[1] != val {
			t.Fatalf("-vary %s=%s,%s split into %q", key, val, val, spec.values)
		}
		point, clients := core.DefaultConfig(1), 1
		if err := spec.apply(&point, &clients, spec.values[1]); err != nil || !reflect.DeepEqual(point, set) {
			t.Fatalf("-vary %s point differs from -set (err %v)", key, err)
		}
	}
}

func TestVaryRejectsUnknownKey(t *testing.T) {
	var vary varyFlag
	for _, arg := range []string{"hosts=8,16", "topology.hosts=8,many", "concurrency=0", "policy=zzz"} {
		if err := vary.Set(arg); err == nil {
			t.Errorf("-vary %s accepted", arg)
		}
	}
}
