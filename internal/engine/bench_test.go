package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkQueue times one Pop and one Push of the popped worker, the
// event loop's traffic per iteration, with n workers pending.
func BenchmarkQueue(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	durations := make([]float64, 1024)
	for k := range durations {
		durations[k] = rng.Float64()
	}
	for _, n := range []int{8, 16, 64, 256} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var q Queue
			for i := 0; i < n; i++ {
				q.Push(durations[i%len(durations)], i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				now, i := q.Pop()
				q.Push(now+durations[k%len(durations)], i)
			}
		})
	}
}

// selfBehavior plans every iteration without a pull.
type selfBehavior struct{}

func (selfBehavior) Plan(i int, now float64, rng *rand.Rand) Pull   { return Pull{Peer: i} }
func (selfBehavior) OnIterationEnd(i, j int, iterSecs, now float64) {}
func (selfBehavior) OnMembership(alive []bool, now float64)         {}

// BenchmarkRunAsync times RunAsync's event loop per worker iteration (pop,
// plan, a gradient step of the smallest model, push) on 8 workers that
// never pull. One run takes the epochs that cover b.N iterations, so the
// run's set-up fades from allocs/op as b.N grows.
func BenchmarkRunAsync(b *testing.B) {
	cfg := testConfig(8, 1)
	total := 0
	for _, s := range cfg.Part.Shards {
		total += s.Len()
	}
	perEpoch := total / cfg.Batch
	cfg.Epochs = max(1, (b.N+perEpoch-1)/perEpoch)
	b.ReportAllocs()
	b.ResetTimer()
	res := RunAsync(cfg, selfBehavior{}, "self")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(res.GlobalSteps), "ns/step")
}
