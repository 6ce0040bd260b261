package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// childEnv makes the test binary run main instead of the tests. The
// benchmark runs every repetition and timed boot in a child process of
// its own executable, which under go test is this binary; TestMain sets
// the variable so those children take the same path as in a real run.
const childEnv = "PERFBENCH_SELFTEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Setenv(childEnv, "1")
	os.Exit(m.Run())
}

// tinyOpts runs a workload at self-test size.
func tinyOpts(t *testing.T, trace bool) opts {
	return opts{seed: 3, seconds: 1, trace: trace, outDir: t.TempDir(), tiny: true}
}

// TestTinyWorkloads runs every workload at a tiny size, untraced and
// traced, and checks that it passes its output checks and prints every
// catalog metric with its unit.
func TestTinyWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, err := run(name, tinyOpts(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			catalog := endToEnd
			if trace {
				catalog = perLayer
			}
			if len(res.Metrics) != len(catalog) {
				t.Errorf("%s trace=%v: %d metrics, catalog has %d", name, trace, len(res.Metrics), len(catalog))
			}
			for _, m := range catalog {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.name, got, m.unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
		}
	}
}

// TestChecksFailOnMismatch feeds the output checks mismatched results.
func TestChecksFailOnMismatch(t *testing.T) {
	res := newRunResult()
	out := simOutcome{Records: 10, Errors: 1, DeploysPerH: 100, DeployP99S: 2, ReportHash: 7}
	checkSame(res, out, out, "same")
	checkAccepted(res, 5, 5)
	if len(res.problems) != 0 {
		t.Fatalf("matching results failed a check: %v", res.problems)
	}
	other := out
	other.ReportHash++
	checkSame(res, out, other, "changed report")
	if len(res.problems) != 1 {
		t.Fatalf("a changed report hash passed the repeat check")
	}
	checkAccepted(res, 5, 4)
	if len(res.problems) != 2 {
		t.Fatalf("a 202 count mismatch passed the submission check")
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []m                     `json:"end_to_end"`
		PerLayer  []m                     `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	same := func(kind string, spec []m, cat []metricDef) {
		if len(spec) != len(cat) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(spec), len(cat))
			return
		}
		for i := range cat {
			if spec[i].Name != cat[i].name || spec[i].Unit != cat[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, spec[i].Name, spec[i].Unit, cat[i].name, cat[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if !strings.Contains(string(readme), "`"+m.name+"`") {
			t.Errorf("README.md does not map layer metric %s", m.name)
		}
	}
}

// burn keeps a CPU busy in this package for d.
func burn(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestCPUShares decodes a real profile and attributes it.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	sink = burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 || shares["bench"] < 50 {
		t.Errorf("burn loop: %d samples, shares %v; want most in bench", samples, shares)
	}
	for fn, want := range map[string]string{
		"cloudmcp/internal/sim.(*Env).Run":           "sim",
		"cloudmcp/internal/mgmtdb.(*DB).Commit":      "mgmtdb",
		"math/rand.(*rngSource).Seed":                "rng",
		"encoding/json.(*encodeState).marshal":       "json",
		"net/http.(*conn).serve":                     "nethttp",
		"runtime.gcBgMarkWorker":                     "gc",
		"runtime.scanobject":                         "gc",
		"runtime.mallocgc":                           "",
		"cloudmcp/internal/inventory.(*Inventory).X": "inventory",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestSelfTime checks self time against overlapping children.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.record(1, 0, "root", 0, 100)
	tr.record(2, 1, "a", 10, 40)
	tr.record(3, 1, "b", 30, 60)
	tr.record(4, 1, "c", 90, 120) // runs past its parent
	spans := tr.finish()
	want := map[string]int64{"root": 100 - 50 - 10, "a": 30, "b": 30, "c": 30}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s: self %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || percentile(xs, 99) != 5 || percentile(xs, 20) != 1 || median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Errorf("median %v p99 %v p20 %v", median(xs), percentile(xs, 99), percentile(xs, 20))
	}
}
