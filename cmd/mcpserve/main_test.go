package main

import (
	"flag"
	"strings"
	"testing"
	"time"
)

func TestValidateServeFlags(t *testing.T) {
	cases := []struct {
		ratio, quantum float64
		shards, orgs   int
		duration       time.Duration
		ok             bool
	}{
		{60, 0.25, 1, 8, 0, true},
		{0, 0.25, 1, 8, 0, true}, // free-run is legal (tests use it)
		{600, 1, 4, 24, 30 * time.Second, true},
		{-1, 0.25, 1, 8, 0, false},
		{60, 0, 1, 8, 0, false},
		{60, -0.5, 1, 8, 0, false},
		{60, 0.25, 0, 8, 0, false},
		{60, 0.25, 1, 0, 0, false},
		{60, 0.25, 1, 8, -time.Second, false},
	}
	for _, c := range cases {
		err := validateServeFlags(c.ratio, c.quantum, c.shards, c.orgs, c.duration)
		if (err == nil) != c.ok {
			t.Errorf("validateServeFlags(%g, %g, %d, %d, %v) = %v, want ok=%v",
				c.ratio, c.quantum, c.shards, c.orgs, c.duration, err, c.ok)
		}
	}
}

func TestValidateServeFlagsMessagesNameTheFlag(t *testing.T) {
	if err := validateServeFlags(-1, 0.25, 1, 8, 0); err == nil || !strings.Contains(err.Error(), "-ratio") {
		t.Fatalf("ratio error = %v, want it to name -ratio", err)
	}
	if err := validateServeFlags(60, 0, 1, 8, 0); err == nil || !strings.Contains(err.Error(), "-quantum") {
		t.Fatalf("quantum error = %v, want it to name -quantum", err)
	}
	if err := validateServeFlags(60, 0.25, 0, 8, 0); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("shards error = %v, want it to name -shards", err)
	}
}

// -seed, -shards and -metrics given explicitly override the -config
// scenario instead of being ignored.
func TestServeConfigFlagsOverlayConfig(t *testing.T) {
	fs := flag.NewFlagSet("mcpserve", flag.ContinueOnError)
	fs.Int64("seed", 1, "")
	fs.Int("shards", 1, "")
	fs.Bool("metrics", false, "")
	if err := fs.Parse([]string{"-seed", "7", "-shards", "2", "-metrics"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := serveConfig(fs, "../../scenarios/default.json")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Plane.Shards != 2 || !cfg.Metrics || cfg.Record {
		t.Fatalf("seed/shards/metrics/record = %d/%d/%v/%v, want 7/2/true/false",
			cfg.Seed, cfg.Plane.Shards, cfg.Metrics, cfg.Record)
	}
}
