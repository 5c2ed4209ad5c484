package experiments

import (
	"errors"
	"fmt"

	"netmax/internal/engine"
	"netmax/internal/stats"
)

func init() {
	register("stats-speedup", "Multi-seed speedup statistics for the headline claim", runStatsSpeedup)
}

// runStatsSpeedup replicates the Fig. 8 ResNet18 comparison over several
// seeds and reports epoch-time speedups as mean +/- stderr: the paper
// reports point estimates (3.7x/3.4x/1.9x); this experiment quantifies the
// run-to-run variance of the reproduction.
func runStatsSpeedup(opt Options) (*Result, error) {
	seeds := 5
	if opt.Quick {
		seeds = 2
	}
	// Replicas share the data and model seeds and vary the network's
	// dynamics.
	replicate := func(algo string) ([]*engine.Result, error) {
		rs := make([]*engine.Result, seeds)
		errs := make([]error, seeds)
		engine.Concurrently(seeds, 0, func(i int) {
			m := paperRun("stats-speedup", opt)
			m.Algorithm, m.Workers, m.Epochs = algo, 8, scaleEpochs(20, opt)
			m.Network.Seed = ptr(stats.ReplicaSeed(opt.Seed+5, i))
			rs[i], errs[i] = run(m)
		})
		return rs, errors.Join(errs...)
	}
	netmax, err := replicate("netmax")
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "stats-speedup",
		Title:  fmt.Sprintf("Epoch-time speedup of NetMax over baselines (n=%d seeds)", seeds),
		Header: []string{"baseline", "speedup mean", "stderr", "min", "max"},
	}
	for _, b := range []struct{ label, algo string }{
		{"Prague", "prague"},
		{"Allreduce-SGD", "allreduce"},
		{"AD-PSGD", "adpsgd"},
	} {
		base, err := replicate(b.algo)
		if err != nil {
			return nil, err
		}
		s, err := stats.SpeedupSummary(base, netmax)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{b.label, f2(s.Mean), f2(s.StdErr), f2(s.Min), f2(s.Max)})
	}
	res.Notes = append(res.Notes, "paper point estimates (ResNet18): 3.7x Prague, 3.4x Allreduce, 1.9x AD-PSGD")
	return res, nil
}
