package experiments

import "netmax/internal/scenario"

func init() {
	register("abl-saps", "Ablation: static fast-subgraph (SAPS) vs adaptive policy under changing link speeds", runAblSAPS)
	register("abl-dpsgd", "Ablation: synchronous D-PSGD neighborhood averaging vs NetMax", runAblDPSGD)
}

// runAblSAPS reproduces the paper's Fig. 2 argument against SAPS-PSGD [15]:
// when WHICH links are fast changes over time (not merely one slowed link),
// a static initially-fast subgraph keeps routing traffic over links that
// have become slow, while NetMax's monitor re-measures and re-routes.
func runAblSAPS(opt Options) (*Result, error) {
	const workers = 8
	res := &Result{
		ID:     "abl-saps",
		Title:  "SAPS static subgraph vs NetMax under shuffled link speeds",
		Header: []string{"network", "approach", "avg total time (s)", "avg comm cost/epoch (s)"},
	}
	netSeeds := []int64{opt.Seed + 5, opt.Seed + 55, opt.Seed + 505}
	if opt.Quick {
		netSeeds = netSeeds[:1]
	}
	for _, netcase := range []struct {
		name string
		net  func(seed int64) *scenario.NetworkSpec
	}{
		{"static rates", func(int64) *scenario.NetworkSpec { return &scenario.NetworkSpec{Kind: "static"} }},
		// The shuffle period is 2x the slow-link period: long enough that
		// the monitor's tracking lag (Ts plus EMA warm-up) is a modest
		// fraction of each regime, short enough that a 40-epoch run spans
		// many regimes for averaging.
		{"shuffled rates", func(seed int64) *scenario.NetworkSpec {
			return &scenario.NetworkSpec{Kind: "shuffled", Seed: ptr(seed), PeriodSecs: 2 * scenario.DefaultSlowPeriod}
		}},
	} {
		var sapsT, sapsC, nmT, nmC float64
		for _, ns := range netSeeds {
			m := paperRun("abl-saps", opt)
			m.Workers, m.Epochs = workers, scaleEpochs(40, opt)
			m.Network = netcase.net(ns)
			rs, err := runAll(m, "saps", "netmax")
			if err != nil {
				return nil, err
			}
			saps, netmax := rs[0], rs[1]
			sapsT += saps.TotalTime / float64(len(netSeeds))
			sapsC += saps.CommCostPerEpoch(workers) / float64(len(netSeeds))
			nmT += netmax.TotalTime / float64(len(netSeeds))
			nmC += netmax.CommCostPerEpoch(workers) / float64(len(netSeeds))
		}
		res.Rows = append(res.Rows,
			[]string{netcase.name, "SAPS-PSGD", f1(sapsT), f2(sapsC)},
			[]string{netcase.name, "NetMax", f1(nmT), f2(nmC)})
	}
	res.Notes = append(res.Notes,
		"expected: SAPS competitive under static rates, degraded under shuffled rates (its subgraph goes stale)",
		"measured finding: SAPS degrades ~1.5x as predicted, yet stays ahead of NetMax here: with a third of all links congested, Eq. 10's frequency equalization forces NetMax to keep floor probability on congested links on every row. NetMax's wins (Fig. 5/8) come from the paper's single-slow-link regime, where those floors are nearly free")
	return res, nil
}

// runAblDPSGD compares synchronous D-PSGD (neighborhood averaging with a
// barrier) against NetMax on the heterogeneous cluster.
func runAblDPSGD(opt Options) (*Result, error) {
	const workers = 8
	m := paperRun("abl-dpsgd", opt)
	m.Workers, m.Epochs = workers, scaleEpochs(16, opt)
	rs, err := runAll(m, "dpsgd", "netmax")
	if err != nil {
		return nil, err
	}
	dpsgd, netmax := rs[0], rs[1]
	res := &Result{
		ID:     "abl-dpsgd",
		Title:  "Synchronous D-PSGD vs NetMax, heterogeneous network",
		Header: []string{"approach", "total time (s)", "comm cost/epoch (s)", "accuracy"},
		Rows: [][]string{
			{"D-PSGD", f1(dpsgd.TotalTime), f2(dpsgd.CommCostPerEpoch(workers)), pct(dpsgd.FinalAccuracy)},
			{"NetMax", f1(netmax.TotalTime), f2(netmax.CommCostPerEpoch(workers)), pct(netmax.FinalAccuracy)},
		},
		Notes: []string{"expected: the sync barrier makes D-PSGD pay the slowest link every round; NetMax avoids it"},
	}
	return res, nil
}
