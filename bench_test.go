package cloudmcp

// BenchmarkSuite runs the E1..E16 suite from the experiment registry at
// quick scale and seed 1, one sub-benchmark per experiment, and prints
// each experiment's artifact once per process:
//
//	go test -run '^$' -bench=. -benchtime=1x .
//
// Strip the harness's Benchmark, goos, goarch, pkg, cpu, PASS and ok
// lines and what remains is byte-identical to mcpbench -quick -seed 1.

import (
	"fmt"
	"os"
	"testing"

	"cloudmcp/internal/core"
)

func BenchmarkSuite(b *testing.B) {
	for _, e := range core.Experiments() {
		printed := false
		b.Run(e.Name, func(b *testing.B) {
			var res core.Renderable
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = core.RunExperiment(e.Name, 1, true, 0); err != nil {
					b.Fatal(err)
				}
			}
			if printed {
				return
			}
			printed = true
			b.StopTimer()
			if err := res.Render(os.Stdout); err != nil {
				b.Fatal(err)
			}
			fmt.Println()
		})
	}
}
