// Package stats provides replica seeds and summary statistics for the
// experiments: regenerated evaluation claims are reported as mean +/-
// stderr over several seeds, not single-run point estimates. The scenario
// suite layer's replicate block and the stats-speedup experiment draw
// their seeds from the same derivation (ReplicaSeed), so declarative
// sweeps and programmatic replicas run identical seed sets.
package stats

import (
	"fmt"
	"math"

	"netmax/internal/engine"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1)
	StdErr float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs; it panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += float64(d * d)
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
		s.StdErr = s.Std / math.Sqrt(float64(len(xs)))
	}
	return s
}

// ReplicaSeed derives replica i's seed from a base seed: seeds are spaced
// 1000 apart so per-replica derived seeds (network schedules, partitions)
// never collide across replicas. The scenario suite layer's replicate
// block and the stats-speedup experiment both use this derivation, so a
// suite's multi-seed sweep runs the exact seeds the experiment does.
func ReplicaSeed(base int64, i int) int64 { return base + int64(i)*1000 }

// SpeedupSummary computes per-seed speedups base[i]/test[i] and summarizes
// them; the two slices must be paired by seed.
func SpeedupSummary(base, test []*engine.Result) (Summary, error) {
	if len(base) != len(test) || len(base) == 0 {
		return Summary{}, fmt.Errorf("stats: mismatched replicates %d vs %d", len(base), len(test))
	}
	sp := make([]float64, len(base))
	for i := range base {
		if test[i].TotalTime <= 0 {
			return Summary{}, fmt.Errorf("stats: non-positive time in replicate %d", i)
		}
		sp[i] = base[i].TotalTime / test[i].TotalTime
	}
	return Summarize(sp), nil
}
