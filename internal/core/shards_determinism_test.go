package core

// Regression tests for the sharded-plane determinism contract: E18's
// artifact must be byte-identical for any sweep worker count (each grid
// point builds its own cloud on streams derived from the master seed),
// and a multi-shard run must itself be reproducible run-to-run.

import (
	"bytes"
	"strings"
	"testing"

	"cloudmcp/internal/faults"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

func e18Quick(workers int) E18Params {
	return E18Params{Seed: 1, ShardCounts: []int{1, 2}, Clients: 48, HorizonS: 120, Workers: workers}
}

func renderE18(t *testing.T, p E18Params) string {
	t.Helper()
	r, err := RunE18(p)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestE18ArtifactIdenticalAcrossWorkerCounts(t *testing.T) {
	serial := renderE18(t, e18Quick(1))
	parallel := renderE18(t, e18Quick(8))
	if serial != parallel {
		t.Fatalf("E18 artifact differs between 1 and 8 sweep workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, parallel)
	}
	for _, want := range []string{
		"E18: linked-clone provisioning vs management shards",
		"E18: full-clone provisioning vs management shards",
		"E18: cross-shard coordination under a migration storm (shared DB)",
	} {
		if !strings.Contains(serial, want) {
			t.Fatalf("artifact missing %q:\n%s", want, serial)
		}
	}
}

// A sharded cloud must produce cross-shard work in the storm leg and
// none at one shard — the coordinator only fires across a boundary.
func TestE18CrossShardAccounting(t *testing.T) {
	r, err := RunE18(e18Quick(0))
	if err != nil {
		t.Fatal(err)
	}
	one, two := r.Points[0], r.Points[1]
	if one.Shards != 1 || two.Shards != 2 {
		t.Fatalf("grid order: %d, %d", one.Shards, two.Shards)
	}
	if one.CrossOps != 0 || one.CoordS != 0 {
		t.Fatalf("1-shard plane coordinated: %+v", one)
	}
	if two.Migrations == 0 || two.CrossOps == 0 || two.CoordS <= 0 {
		t.Fatalf("2-shard storm saw no cross-shard work: %+v", two)
	}
	if two.CrossShare <= 0 || two.CrossShare >= 100 {
		t.Fatalf("cross share %.1f%% out of range", two.CrossShare)
	}
}

// A four-shard cloud with fault injection and every reconcile controller
// is the busiest mix of processes, timers and cross-shard coordination
// the kernel runs; two runs must agree byte for byte on the operation
// trace and the controller stats.
func TestShardedArtifactsReproducible(t *testing.T) {
	run := func() ([]byte, []reconcile.Stats) {
		cfg := DefaultConfig(1)
		cfg.Plane.Shards = 4
		fc := faults.Preset(0.1)
		cfg.Faults = &fc
		rc := reconcile.DefaultConfig()
		rc.Controllers = reconcile.ControllerNames()
		cfg.Reconcile = &rc
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunProfile(workload.CloudA(), Hour); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf, c.Records()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), c.ReconcileStats()
	}
	aTrace, aStats := run()
	bTrace, bStats := run()
	if len(aTrace) == 0 || !bytes.Equal(aTrace, bTrace) {
		t.Fatal("sharded fault+reconcile runs diverged (or recorded nothing)")
	}
	if len(aStats) != len(bStats) {
		t.Fatalf("stats length diverged: %d vs %d", len(aStats), len(bStats))
	}
	for i := range aStats {
		if aStats[i] != bStats[i] {
			t.Fatalf("controller %q stats diverged:\n%+v\n%+v", aStats[i].Controller, aStats[i], bStats[i])
		}
	}
}
