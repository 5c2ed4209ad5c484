package experiments

import (
	"fmt"

	"netmax/internal/core"
	"netmax/internal/scenario"
)

func init() {
	register("abl-blend", "Ablation: 1/p-scaled consensus weight vs fixed averaging", runAblBlend)
	register("abl-ts", "Ablation: Network Monitor period Ts", runAblTs)
	register("abl-beta", "Ablation: EMA smoothing factor beta", runAblBeta)
	register("abl-rounds", "Ablation: Algorithm 3 search grid size K=R", runAblRounds)
}

// ablRun is the ablations' NetMax run on the paper cluster, with the
// given monitor knobs.
func ablRun(id string, opt Options, epochs int, nm core.Options) *scenario.Manifest {
	m := paperRun(id, opt)
	m.Workers, m.Epochs, m.LRDecayEpoch = 8, epochs, epochs*7/10
	m.NetMax = &nm
	return m
}

// runAblBlend compares Algorithm 2's 1/p_im-scaled blend weight against
// AD-PSGD+Monitor's averaging under the same adaptive monitor (this is the
// algorithmic delta between NetMax and AD-PSGD+Monitor).
func runAblBlend(opt Options) (*Result, error) {
	epochs := scaleEpochs(30, opt)
	scaled, err := run(ablRun("abl-blend", opt, epochs, core.Options{}))
	if err != nil {
		return nil, err
	}
	m := ablRun("abl-blend", opt, epochs, core.Options{})
	m.Algorithm = "adpsgd-monitor"
	fixed, err := run(m)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "abl-blend",
		Title:  "Consensus blend weight ablation",
		Header: []string{"blend", "total time (s)", "final loss", "accuracy"},
		Rows: [][]string{
			{"1/p-scaled (NetMax)", f1(scaled.TotalTime), fmt.Sprintf("%.3f", scaled.FinalLoss), pct(scaled.FinalAccuracy)},
			{"fixed 1/2", f1(fixed.TotalTime), fmt.Sprintf("%.3f", fixed.FinalLoss), pct(fixed.FinalAccuracy)},
		},
		Notes: []string{"paper (Sec V-H): the scaled weight preserves information from rarely-pulled neighbors, improving per-epoch convergence"},
	}
	return res, nil
}

// runAblTs sweeps the monitor period: too long reacts slowly to the moving
// slow link; too short wastes little here (policy generation is cheap) but
// in a real deployment adds control traffic.
func runAblTs(opt Options) (*Result, error) {
	epochs := scaleEpochs(20, opt)
	res := &Result{
		ID:     "abl-ts",
		Title:  "Monitor period Ts sweep (seconds, simulator scale)",
		Header: []string{"Ts", "total time (s)", "comm cost/epoch (s)"},
	}
	const ts0 = core.DefaultMonitorTs
	for _, ts := range []float64{ts0 / 4, ts0, ts0 * 4, ts0 * 16} {
		r, err := run(ablRun("abl-ts", opt, epochs, core.Options{TsSecs: ts}))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{f2(ts), f1(r.TotalTime), f2(r.CommCostPerEpoch(8))})
	}
	res.Notes = append(res.Notes, "expected: total time grows once Ts far exceeds the slow-link period (stale policies)")
	return res, nil
}

// runAblBeta sweeps the EMA smoothing factor β of Algorithm 2: small β
// tracks link changes quickly, large β smooths noise but reacts slowly.
func runAblBeta(opt Options) (*Result, error) {
	epochs := scaleEpochs(20, opt)
	res := &Result{
		ID:     "abl-beta",
		Title:  "EMA smoothing factor beta sweep",
		Header: []string{"beta", "total time (s)", "comm cost/epoch (s)"},
	}
	for _, beta := range []float64{0.1, 0.5, 0.9} {
		r, err := run(ablRun("abl-beta", opt, epochs, core.Options{Beta: beta}))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{f2(beta), f1(r.TotalTime), f2(r.CommCostPerEpoch(8))})
	}
	if opt.Quick {
		res.Notes = append(res.Notes, fmt.Sprintf("quick scale cannot separate beta: its %d-epoch runs print the same row for every beta; compare beta at full scale", epochs))
	}
	return res, nil
}

// runAblRounds sweeps Algorithm 3's grid size: coarse grids may miss good
// (ρ, t̄) candidates; fine grids cost monitor CPU.
func runAblRounds(opt Options) (*Result, error) {
	epochs := scaleEpochs(20, opt)
	res := &Result{
		ID:     "abl-rounds",
		Title:  "Algorithm 3 grid size sweep (K = R)",
		Header: []string{"K=R", "total time (s)", "comm cost/epoch (s)"},
	}
	for _, k := range []int{3, 10, 20} {
		r, err := run(ablRun("abl-rounds", opt, epochs, core.Options{PolicyRounds: k}))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{fmt.Sprint(k), f1(r.TotalTime), f2(r.CommCostPerEpoch(8))})
	}
	return res, nil
}
