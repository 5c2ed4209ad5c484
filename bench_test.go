// BenchmarkQuickSuite runs every experiment of the paper's evaluation once
// at quick scale (reduced epochs and node counts), seed 1, one sub-benchmark
// per experiment id. The tables themselves are pinned by
// TestQuickTablesGolden and printed by cmd/netmax-bench; this benchmark is
// the whole quick suite under the test driver's timers and profilers:
//
//	go test -run '^$' -bench . -benchtime 1x -cpu 1 -cpuprofile cpu.out .
package netmax

import (
	"testing"

	"netmax/internal/experiments"
)

func BenchmarkQuickSuite(b *testing.B) {
	for _, r := range experiments.All() {
		b.Run(r.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(experiments.Options{Seed: 1, Quick: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
