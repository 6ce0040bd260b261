// Package cloudmcp is a discrete-event simulator and workload-
// characterization toolkit for the management control plane of
// virtualized cloud infrastructure, reproducing Soundararajan &
// Spracklen, "Revisiting the management control plane in virtualized
// cloud computing infrastructure" (IISWC 2013).
//
// The public entry point is internal/core (package core), which
// assembles the full simulated stack; see README.md for the repository
// map and DESIGN.md for the system inventory and the reconstructed
// experiment index. BenchmarkSuite in bench_test.go runs the E1..E16
// suite from the experiment registry and prints every table and figure,
// the same bytes as cmd/mcpbench -quick -seed 1:
//
//	go test -run '^$' -bench=. -benchtime=1x .
package cloudmcp
