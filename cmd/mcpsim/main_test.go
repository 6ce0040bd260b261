package main

import (
	"bytes"
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
		{"-set", "director.placement=nearest"},
	} {
		if err := run(append(args, "-hours", "0.01"), &bytes.Buffer{}); err == nil {
			t.Errorf("mcpsim %s accepted", strings.Join(args, " "))
		}
	}
}
