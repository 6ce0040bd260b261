// Command mcpserve boots a simulated self-service cloud behind the
// VCD-style REST API and serves it in wall-clock time: the paced driver
// holds the simulation's virtual clock to -ratio virtual seconds per
// wall second, and externally submitted operations enter the event heap
// at quantum boundaries. Clients create sessions, instantiate vApps,
// and poll async task handles exactly as against a real cloud director
// — except that time inside is virtual and the whole installation is a
// deterministic simulation.
//
//	mcpserve                               # 127.0.0.1:8080, one virtual minute per wall second
//	mcpserve -ratio 600 -shards 4          # faster clock, sharded management plane
//	mcpserve -config scenarios/default.json
//	mcpserve -duration 30s                 # serve for 30s wall, then summarize and exit
//
// On SIGINT/SIGTERM (or after -duration) the server drains: no further
// commands are injected, pending requests are rejected with 503, and a
// serving summary — operations, API-layer queue wait, worst wall-clock
// lag — is printed to stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cloudmcp/internal/api"
	"cloudmcp/internal/core"
	"cloudmcp/internal/sim"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		ratio      = flag.Float64("ratio", 60, "virtual seconds per wall-clock second (0 = free-run, for tests)")
		quantum    = flag.Float64("quantum", 0.25, "injection quantum in virtual seconds")
		shards     = flag.Int("shards", 1, "management-server shards behind the director")
		orgs       = flag.Int("orgs", 8, "tenant organizations (org0..orgN-1)")
		configPath = flag.String("config", "", "JSON scenario file; -seed, -shards and -metrics given explicitly override it")
		duration   = flag.Duration("duration", 0, "serve for this wall-clock duration then exit (0 = until SIGINT/SIGTERM)")
		sessionTTL = flag.Duration("session-ttl", api.DefaultSessionTTL, "idle timeout before a session is evicted (0 = never)")
	)
	flag.Int64("seed", 1, "master random seed (overrides -config's)")
	flag.Bool("metrics", false, "collect per-layer metrics and print the snapshot at shutdown")
	flag.Parse()
	if err := validateServeFlags(*ratio, *quantum, *shards, *orgs, *duration); err != nil {
		fatal(err)
	}
	if *sessionTTL < 0 {
		fatal(fmt.Errorf("-session-ttl must be >= 0, got %v", *sessionTTL))
	}

	cfg, err := serveConfig(flag.CommandLine, *configPath)
	if err != nil {
		fatal(err)
	}
	cloud, err := core.New(cfg)
	if err != nil {
		fatal(err)
	}
	drv := sim.NewPaced(cloud.Env(), sim.PacedConfig{Ratio: *ratio, QuantumS: sim.Time(*quantum)})
	fe := core.NewFrontend(cloud, drv, core.FrontendConfig{Orgs: *orgs})
	srv := api.NewServer(fe)
	srv.SetSessionTTL(*sessionTTL)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mcpserve: serving on http://%s (ratio %g, quantum %gs, shards %d, orgs %d)\n",
		ln.Addr(), *ratio, *quantum, cloud.Plane().ShardCount(), *orgs)

	hs := api.NewHTTPServer(srv)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	runDone := make(chan struct{})
	go func() {
		drv.Run(sim.Forever)
		close(runDone)
	}()

	// Wait for a signal or the -duration timer, whichever the deployment
	// uses; then drain in order — stop injecting first, so in-flight
	// polls still see their tasks resolve to terminal states.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	var timer <-chan time.Time
	if *duration > 0 {
		timer = time.After(*duration)
	}
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "mcpserve: %v, draining\n", sig)
	case <-timer:
		fmt.Fprintf(os.Stderr, "mcpserve: -duration elapsed, draining\n")
	case err := <-serveErr:
		drv.Stop()
		<-runDone
		fatal(fmt.Errorf("serve: %w", err))
	}

	drv.Stop()
	<-runDone
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "mcpserve: shutdown: %v\n", err)
	}

	if err := summarize(os.Stdout, fe, drv, cloud, cfg.Metrics); err != nil {
		fatal(err)
	}
}

// serveConfig is the served cloud's Config: the -config scenario (or
// the defaults), then -seed, -shards and -metrics where given
// explicitly. Recording is off: a served run is open-ended, and an
// unbounded trace would only leak.
func serveConfig(fs *flag.FlagSet, path string) (core.Config, error) {
	cfg, err := core.ConfigFromFlags(fs, path, nil)
	cfg.Record = false
	return cfg, err
}

// summarize prints the serving summary after the driver has stopped
// (MaxLag is only coherent then).
func summarize(w *os.File, fe *core.Frontend, drv *sim.Paced, cloud *core.Cloud, metricsOn bool) error {
	st := fe.Stats()
	if _, err := fmt.Fprintf(w,
		"mcpserve summary: virtual %.1fs served, %d submitted, %d completed, %d failed, %d in flight at drain\n",
		float64(fe.Clock()), st.Submitted, st.Completed, st.Failed, st.InFlight); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "api queue wait: total %.2f virtual s, mean %.3fs; worst wall lag %.1fms\n",
		st.QueueWaitSumS, st.QueueWaitMeanS, float64(drv.MaxLag())/float64(time.Millisecond)); err != nil {
		return err
	}
	if metricsOn {
		if snap := cloud.MetricsSnapshot(); snap != nil {
			if err := snap.WriteASCII(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateServeFlags rejects inconsistent values up front with a clear
// message instead of misbehaving mid-serve.
func validateServeFlags(ratio, quantum float64, shards, orgs int, duration time.Duration) error {
	if ratio < 0 {
		return fmt.Errorf("-ratio must be >= 0, got %g", ratio)
	}
	if quantum <= 0 {
		return fmt.Errorf("-quantum must be > 0, got %g", quantum)
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", shards)
	}
	if orgs < 1 {
		return fmt.Errorf("-orgs must be >= 1, got %d", orgs)
	}
	if duration < 0 {
		return fmt.Errorf("-duration must be >= 0, got %v", duration)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcpserve:", err)
	os.Exit(1)
}
