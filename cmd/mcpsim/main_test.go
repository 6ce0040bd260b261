package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"cloudmcp/internal/core"
)

func runSim(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("mcpsim %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// Alias flags given explicitly overlay the -config scenario; -set
// overlays them in turn.
func TestFlagsOverlayConfig(t *testing.T) {
	dump := runSim(t, "-config", "../../scenarios/default.json", "-seed", "7", "-shards", "2",
		"-set", "director.cells=3", "-dump-config")
	cfg, err := core.LoadConfig(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Plane.Shards != 2 || cfg.Director.Cells != 3 {
		t.Fatalf("seed/shards/cells = %d/%d/%d, want 7/2/3", cfg.Seed, cfg.Plane.Shards, cfg.Director.Cells)
	}
	if cfg, _ = core.LoadConfig(strings.NewReader(runSim(t, "-seed", "7", "-set", "seed=9", "-dump-config"))); cfg.Seed != 9 {
		t.Fatalf("-set seed=9 after -seed 7 gave seed %d", cfg.Seed)
	}
}

// The header and the optional tables follow the effective Config, not
// the flags: a full-clone scenario reports fast=false, and a scenario
// that injects faults prints the fault and retry table.
func TestReportFollowsConfig(t *testing.T) {
	if out := runSim(t, "-config", "../../scenarios/sticky-tenants.json", "-hours", "0.1"); !strings.Contains(out, "(fast=false)") {
		t.Fatalf("sticky-tenants header:\n%s", strings.SplitN(out, "\n", 2)[0])
	}
	out := runSim(t, "-config", "../../scenarios/fault-burst.json", "-hours", "0.1")
	if !strings.Contains(out, "Fault injection (rate 0.10) and retries") {
		t.Fatalf("fault-burst prints no fault/retry table:\n%s", out)
	}
	if strings.Contains(runSim(t, "-config", "../../scenarios/fault-burst.json", "-faults=false", "-hours", "0.1"), "Fault injection") {
		t.Fatal("-faults=false left fault injection on")
	}
}

func TestRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-fault-rate", "1.5"},
		{"-set", "topology.hosts=2", "-shards", "4"},
		{"-set", "topology.hostz=2"},
		{"-set", "reconcile.depth=-1"},
		{"-set", "reconcile.depth=0"},
		{"-set", "reconcile.intervalS=0"},
		{"-set", "reconcile.maxRetries=0"},
		{"-set", "director.placement=nearest"},
	} {
		if err := run(append(args, "-hours", "0.01"), &bytes.Buffer{}); err == nil {
			t.Errorf("mcpsim %s accepted", strings.Join(args, " "))
		}
	}
}

// TestFaultsReconcileRunPinned pins the full output of two runs whose
// every fault, retry-jitter and reconcile decision draws from a freshly
// re-seeded per-decision stream (rng.Reseeder), to the digests the
// math/rand-seeded Reseeder produced at commit b66c39b. The CI
// determinism legs run one binary twice and cannot see a draw drift
// between commits; this test can.
func TestFaultsReconcileRunPinned(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "4", "-faults", "-reconcile", "-hours", "2"},
			"098a7aaadd90ed95cde0a0d8c64224e5936aa5628efabbb3de3b1749754ee4b4"},
		{[]string{"-config", "../../scenarios/fault-burst.json", "-hours", "1"},
			"56c8482a054aefd06c74ffebd46105d1b4cad0deeac7c174ba4c260ebc674aaf"},
	} {
		out := runSim(t, c.args...)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != c.want {
			t.Errorf("mcpsim %s: output digest %s, want %s\n%s", strings.Join(c.args, " "), got, c.want, out)
		}
	}
}
