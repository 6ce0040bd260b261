package core

// The experiment registry: one table of (name, default params) shared by
// cmd/mcpbench -only, RunAll, the repository's BenchmarkSuite, and
// anything else that wants "the suite".

import (
	"fmt"
	"io"
	"time"

	"cloudmcp/internal/sweep"
)

// Renderable is any experiment result that can write its artifact.
type Renderable interface{ Render(io.Writer) error }

// Experiment is one named entry of the suite. Run is a pure function of
// (seed, scale): scale 1.0 is the full paper horizon, 0.1 the quick/CI
// horizon. workers bounds the experiment's internal sweep pool (0 =
// GOMAXPROCS); experiments without an internal sweep ignore it.
type Experiment struct {
	Name string
	Run  func(seed int64, scale float64, workers int) (Renderable, error)
}

// Experiments returns the full suite in E1..E16 render order.
func Experiments() []Experiment {
	return []Experiment{
		{"E1", func(seed int64, scale float64, _ int) (Renderable, error) {
			return RunE1(E1Params{Seed: seed, HorizonS: 2 * Day * scale})
		}},
		{"E2", func(seed int64, scale float64, _ int) (Renderable, error) {
			return RunE2(E2Params{Seed: seed, HorizonS: 2 * Day * scale})
		}},
		{"E3", func(seed int64, scale float64, _ int) (Renderable, error) {
			return RunE3(E3Params{Seed: seed, HorizonS: 2 * Day * scale})
		}},
		{"E4", func(seed int64, scale float64, _ int) (Renderable, error) {
			return RunE4(E4Params{Seed: seed, HorizonS: 12 * Hour * scale})
		}},
		{"E5", func(seed int64, _ float64, workers int) (Renderable, error) {
			return RunE5(E5Params{Seed: seed, Workers: workers})
		}},
		{"E6", func(seed int64, scale float64, workers int) (Renderable, error) {
			return RunE6(E6Params{Seed: seed, HorizonS: 1800 * scale, Workers: workers})
		}},
		{"E7", func(seed int64, scale float64, workers int) (Renderable, error) {
			return RunE7(E7Params{Seed: seed, HorizonS: Hour * scale, Workers: workers})
		}},
		{"E8", func(seed int64, scale float64, _ int) (Renderable, error) {
			return RunE8(E8Params{Seed: seed, HorizonS: 2 * Hour * scale})
		}},
		{"E9", func(seed int64, scale float64, workers int) (Renderable, error) {
			return RunE9(E9Params{Seed: seed, HorizonS: Hour * scale, Workers: workers})
		}},
		{"E10", func(seed int64, scale float64, workers int) (Renderable, error) {
			return RunE10(E10Params{Seed: seed, HorizonS: 1800 * scale, SweepWorkers: workers})
		}},
		{"E11", func(seed int64, scale float64, workers int) (Renderable, error) {
			return RunE11(E11Params{Seed: seed, HorizonS: 1800 * scale, SweepWorkers: workers})
		}},
		{"E12", func(seed int64, scale float64, _ int) (Renderable, error) {
			return RunE12(E12Params{Seed: seed, HorizonS: 1800 * scale})
		}},
		{"E13", func(seed int64, scale float64, workers int) (Renderable, error) {
			return RunE13(E13Params{Seed: seed, HorizonS: 1800 * scale, SweepWorkers: workers})
		}},
		{"E14", func(seed int64, scale float64, _ int) (Renderable, error) {
			return RunE14(E14Params{Seed: seed, HorizonS: 1800 * scale})
		}},
		{"E15", func(seed int64, scale float64, _ int) (Renderable, error) {
			return RunE15(E15Params{Seed: seed, RecordS: 2 * Hour * scale})
		}},
		{"E16", func(seed int64, scale float64, _ int) (Renderable, error) {
			return RunE16(E16Params{Seed: seed, HorizonS: 1800 * scale})
		}},
	}
}

// Extensions returns opt-in experiments that are not part of the
// default suite. E17 enables fault injection, E18 reshapes the
// management-plane topology, E19 scales the inventory itself, E20
// turns on the reconciliation plane, and E21 races policy sets; folding
// any of them into RunAll would grow the default artifact. They run via
// RunExperiment (mcpbench -only E17/E18/E19/E20/E21) instead, E19's
// larger ladders via mcpbench -scale.
func Extensions() []Experiment {
	return []Experiment{
		{"E17", func(seed int64, scale float64, workers int) (Renderable, error) {
			return RunE17(E17Params{Seed: seed, HorizonS: 1800 * scale, Workers: workers})
		}},
		{"E18", func(seed int64, scale float64, workers int) (Renderable, error) {
			return RunE18(E18Params{Seed: seed, HorizonS: 1800 * scale, Workers: workers})
		}},
		{"E19", func(seed int64, scale float64, workers int) (Renderable, error) {
			pp := E19Params{Seed: seed, HorizonS: 1800 * scale, Workers: workers}
			if scale < 1 {
				// Quick/CI runs climb the two smallest rungs only.
				pp.Sizes = []int{1000, 10000}
			}
			return RunE19(pp)
		}},
		{"E20", func(seed int64, scale float64, workers int) (Renderable, error) {
			return RunE20(E20Params{Seed: seed, HorizonS: 1800 * scale, Workers: workers})
		}},
		{"E21", func(seed int64, scale float64, workers int) (Renderable, error) {
			return RunE21(E21Params{Seed: seed, HorizonS: 1800 * scale, Workers: workers})
		}},
	}
}

// registered holds extensions contributed from outside this package.
// Packages above core in the import graph (internal/api's E22) register
// here so RunExperiment can dispatch to them without core importing
// them — core cannot, without a cycle.
var registered []Experiment

// RegisterExtension adds an externally defined experiment to the
// registry. Call from an init function or before RunExperiment; later
// registrations with an existing name override the earlier entry.
func RegisterExtension(e Experiment) {
	for i := range registered {
		if registered[i].Name == e.Name {
			registered[i] = e
			return
		}
	}
	registered = append(registered, e)
}

// RunExperiment runs one experiment by name at its registry-default
// horizon.
func RunExperiment(name string, seed int64, quick bool, workers int) (Renderable, error) {
	scale := 1.0
	if quick {
		scale = 0.1
	}
	all := append(Experiments(), Extensions()...)
	all = append(all, registered...)
	for _, e := range all {
		if e.Name == name {
			r, err := e.Run(seed, scale, workers)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.Name, err)
			}
			return r, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want E1..E22, or a registered extension)", name)
}

// RunAllOptions tunes the parallel suite run.
type RunAllOptions struct {
	// Workers bounds both the across-experiment pool and each
	// experiment's internal sweep pool; 0 = GOMAXPROCS. Workers=1
	// reproduces a fully serial run — with output identical to any
	// other worker count.
	Workers int
	// Progress, when non-nil, is called after each experiment finishes.
	Progress func(done, total int, elapsed time.Duration)
}

// RunAll runs every experiment ("quick" ≈ CI-speed scale 0.1, else full
// paper horizons) and renders each to w in E1..E16 order. Experiments
// execute concurrently across the sweep engine's pool; rendering waits
// for all of them, so output is byte-identical to a serial run.
func RunAll(w io.Writer, seed int64, quick bool) error {
	return RunAllWith(w, seed, quick, RunAllOptions{})
}

// RunAllWith is RunAll with an explicit worker count and progress hook.
func RunAllWith(w io.Writer, seed int64, quick bool, opts RunAllOptions) error {
	scale := 1.0
	if quick {
		scale = 0.1
	}
	steps := Experiments()
	var onProgress func(sweep.Progress)
	if opts.Progress != nil {
		onProgress = func(p sweep.Progress) { opts.Progress(p.Done, p.Total, p.Elapsed) }
	}
	results, err := sweep.Run(sweep.Options{MasterSeed: seed, Workers: opts.Workers, OnProgress: onProgress},
		len(steps), func(pt sweep.Point) (Renderable, error) {
			s := steps[pt.Index]
			r, err := s.Run(seed, scale, opts.Workers)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.Name, err)
			}
			return r, nil
		})
	if err != nil {
		return err
	}
	for _, r := range results {
		if err := r.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
