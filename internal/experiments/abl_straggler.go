package experiments

import "netmax/internal/scenario"

func init() {
	register("abl-straggler", "Ablation: compute stragglers (one worker 5x slower)", runAblStraggler)
}

// runAblStraggler studies the compute-heterogeneity dimension targeted by
// Prague [14] and Hop [25]: one worker's gradient computation runs 5x
// slower. Barrier-synchronized approaches pay the straggler every round;
// asynchronous approaches (and Prague's group scheme) degrade gracefully.
func runAblStraggler(opt Options) (*Result, error) {
	res := &Result{
		ID:     "abl-straggler",
		Title:  "One worker computing 5x slower, homogeneous network",
		Header: []string{"approach", "uniform compute (s)", "with straggler (s)", "slowdown"},
	}
	m := paperRun("abl-straggler", opt)
	m.Workers, m.Epochs = 8, scaleEpochs(16, opt)
	onSwitch(m)
	algos := []string{"allreduce", "dpsgd", "prague", "adpsgd", "netmax"}
	base, err := runAll(m, algos...)
	if err != nil {
		return nil, err
	}
	m.Compute = &scenario.ComputeSpec{Kind: "straggler", Worker: 3, Factor: 5}
	slow, err := runAll(m, algos...)
	if err != nil {
		return nil, err
	}
	for i, label := range []string{"Allreduce", "D-PSGD", "Prague", "AD-PSGD", "NetMax"} {
		res.Rows = append(res.Rows, []string{label, f1(base[i].TotalTime), f1(slow[i].TotalTime), f2(slow[i].TotalTime / base[i].TotalTime)})
	}
	res.Notes = append(res.Notes,
		"expected: sync approaches slow down toward 5x; async approaches stay near 1x (the straggler only throttles its own share of samples)")
	return res, nil
}
