package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudmcp/internal/core"
	"cloudmcp/internal/metrics"
)

// errWriter fails every write — the shape of a closed pipe or full disk.
// Every rendering path must propagate it so mcpbench exits non-zero
// instead of announcing success for a truncated artifact.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

func fakeProbeResult() core.ClosedLoopResult {
	return core.ClosedLoopResult{
		DeploysPerHour: 120, MeanLatencyS: 30, P95LatencyS: 60,
		Metrics: &metrics.Snapshot{},
	}
}

func TestProbeReportPropagatesWriteError(t *testing.T) {
	err := probeReport(errWriter{}, fakeProbeResult(), 64, 1800, "")
	if err == nil || !strings.Contains(err.Error(), "broken pipe") {
		t.Fatalf("probeReport on failing writer = %v, want the write error", err)
	}
}

func TestProbeReportWritesSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := probeReport(&buf, fakeProbeResult(), 64, 1800, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"metrics probe", "64 closed-loop workers", "deploys/hour 120.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("probe report %q missing %q", out, want)
		}
	}
}

func TestWriteBenchReportPropagatesWriteError(t *testing.T) {
	rep := benchReport{Suite: "kernel", Results: []benchEntry{{Name: "x"}}}
	if err := writeBenchReport(errWriter{}, "bench-kernel", "-", rep); err == nil {
		t.Fatal("writeBenchReport on failing writer = nil, want error")
	}
	var buf bytes.Buffer
	if err := writeBenchReport(&buf, "bench-kernel", "-", rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"suite\": \"kernel\"") {
		t.Fatalf("report JSON %q missing suite", buf.String())
	}
}

func TestRunBenchMeasures(t *testing.T) {
	e := runBench("noop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
		}
	})
	if e.Name != "noop" || e.Iterations <= 0 {
		t.Fatalf("runBench entry %+v", e)
	}
}

func TestLadderRungs(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1000, []int{1000}},
		{10000, []int{1000, 10000}},
		{1000000, []int{1000, 10000, 100000, 1000000}},
		{250000, []int{1000, 10000, 100000, 250000}},
		{500, []int{500}}, // bench-inventory allows tiny rungs
	}
	for _, c := range cases {
		got := ladder(c.max)
		if len(got) != len(c.want) {
			t.Fatalf("ladder(%d) = %v, want %v", c.max, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ladder(%d) = %v, want %v", c.max, got, c.want)
			}
		}
	}
}

func TestValidateScaleFlag(t *testing.T) {
	cases := []struct {
		scaleTo  int
		benchInv string
		ok       bool
	}{
		{0, "", true},           // off
		{1000000, "", true},     // full ladder
		{-1, "", false},         // negative
		{500, "", false},        // below the smallest E19 rung
		{500, "out.json", true}, // tiny rung is fine for the wall-clock bench
	}
	for _, c := range cases {
		err := validateScaleFlag(c.scaleTo, c.benchInv)
		if (err == nil) != c.ok {
			t.Errorf("validateScaleFlag(%d, %q) = %v, want ok=%v", c.scaleTo, c.benchInv, err, c.ok)
		}
	}
}

func TestBenchInventoryTinyRung(t *testing.T) {
	if testing.Short() {
		t.Skip("runs wall-clock benchmarks")
	}
	var buf bytes.Buffer
	if err := benchInventory(&buf, "-", 200); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"\"suite\": \"inventory\"", "indexed_place_cycle_ns_per_op", "linear_place_cycle_ns_per_op"} {
		if !strings.Contains(out, want) {
			t.Fatalf("bench-inventory output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteInvBenchReportPropagatesWriteError writes an inventory
// report to a file: the JSON lands in the file, nproc included, and a
// failure to announce it on w is still an error.
func TestWriteInvBenchReportPropagatesWriteError(t *testing.T) {
	rep := invBenchReport{Suite: "inventory", NumCPU: 3}
	path := filepath.Join(t.TempDir(), "inv.json")
	if err := writeBenchReport(errWriter{}, "bench-inventory", path, rep); err == nil {
		t.Fatal("writeBenchReport with failing w = nil, want error")
	}
	var buf bytes.Buffer
	if err := writeBenchReport(&buf, "bench-inventory", path, rep); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "bench-inventory: wrote "+path+"\n"; got != want {
		t.Fatalf("w got %q, want %q", got, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"nproc\": 3") {
		t.Fatalf("report file %q missing nproc", data)
	}
	if err := writeBenchReport(&buf, "bench-inventory", filepath.Join(path, "nodir"), rep); err == nil {
		t.Fatal("writeBenchReport to an uncreatable path = nil, want error")
	}
}

// TestCheckModes: each of -bench-kernel, -bench-inventory, -scale,
// -metrics/-metrics-out and -only selects its own run, so any two
// together are rejected with both flags named, except -scale as the
// -bench-inventory ladder top.
func TestCheckModes(t *testing.T) {
	cases := []struct {
		name string
		o    options
		want string // "" = accepted; else the flag pair the error names
	}{
		{"suite", options{}, ""},
		{"only", options{only: "E6"}, ""},
		{"metrics", options{showMetrics: true, metricsOut: "m.json"}, ""},
		{"scale", options{scaleTo: 1000}, ""},
		{"bench-inventory with scale", options{benchInvOut: "-", scaleTo: 500}, ""},
		{"only+metrics", options{only: "E6", showMetrics: true}, "-metrics and -only"},
		{"only+metrics-out", options{only: "E6", metricsOut: "m.json"}, "-metrics-out and -only"},
		{"only+scale", options{only: "E6", scaleTo: 1000}, "-scale and -only"},
		{"bench-kernel+only", options{benchOut: "f", only: "E6"}, "-bench-kernel and -only"},
		{"bench-kernel+bench-inventory", options{benchOut: "f", benchInvOut: "g"}, "-bench-kernel and -bench-inventory"},
		{"bench-inventory+metrics", options{benchInvOut: "g", showMetrics: true}, "-bench-inventory and -metrics"},
		{"scale+metrics", options{scaleTo: 1000, showMetrics: true}, "-scale and -metrics"},
		{"bench-inventory+scale+only", options{benchInvOut: "g", scaleTo: 500, only: "E6"}, "-bench-inventory and -only"},
	}
	for _, c := range cases {
		err := checkModes(c.o)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: checkModes = %v, want accepted", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: checkModes accepted, want an error naming %s", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: checkModes = %q, want it to name %s", c.name, err, c.want)
		}
	}
}

// TestExtensionArtifactsPinned pins the quick seed-1 artifacts of the
// extension experiments to the digests computed at commit ea59ef5,
// before the shared policy ranker and the single retry struct: neither
// refactor may move a byte of E17, E18, E20 or E21.
func TestExtensionArtifactsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four extension experiments")
	}
	want := map[string]string{
		"E17": "8704df7bc833eae594998565ccb04353d9d9a51b556257f14371017eadfa7943",
		"E18": "4446ccb933d5278cb3d4fe25f7ee9761ba21207c51107a145bbee3a45bdfed39",
		"E20": "8dafb910809a269439a584e364121ff7d8facdf34cae7ed5d8cdc79e261e57af",
		"E21": "0d02ef2441c7a8e6a43b50c9cc3c9b882ed2e41e9aeadf0a2e3236980fd1ef90",
	}
	for _, id := range []string{"E17", "E18", "E20", "E21"} {
		var buf bytes.Buffer
		if err := run(&buf, options{seed: 1, quick: true, only: id}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want[id] {
			t.Errorf("%s artifact digest %s, want %s", id, got, want[id])
		}
	}
}
