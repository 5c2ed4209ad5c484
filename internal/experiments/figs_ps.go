package experiments

import (
	"fmt"

	"netmax/internal/engine"
	"netmax/internal/scenario"
)

func init() {
	register("fig14", "MobileNet on CIFAR100 incl. parameter servers (Fig. 14 / Table VI)", runFig14)
	register("fig15", "AD-PSGD extended with the Network Monitor (Fig. 15)", runFig15)
	register("fig19", "Cross-region WAN training (Fig. 19, Table VII)", runFig19)
}

// runFig14 reproduces Fig. 14 and Table VI: a small model (MobileNet) on a
// complex dataset (CIFAR100) with PS-syn/PS-asyn added to the comparison.
func runFig14(opt Options) (*Result, error) {
	epochs := scaleEpochs(30, opt)
	m := paperRun("fig14", opt)
	m.Dataset, m.Model, m.Workers, m.Epochs = "CIFAR100", "MobileNet", 8, epochs
	m.Partition = &scenario.PartitionSpec{Preset: "paper-8"}
	m.Network.Seed = ptr(m.Seed) // the races draw dynamics from the model seed
	m.Batch, m.LR, m.LRDecayEpoch = 8, 0.03, epochs*2/3
	res := &Result{
		ID:     "fig14",
		Title:  "MobileNet on CIFAR100, heterogeneous, with PS baselines",
		Header: []string{"approach", "total time (s)", "epochs to target", "time to target (s)", "accuracy"},
		Curves: map[string][]engine.Point{},
	}
	// The cluster comparison set plus the parameter-server baselines of
	// Section V-G.
	rs, err := runAll(m, "prague", "allreduce", "adpsgd", "ps-sync", "ps-async", "netmax")
	if err != nil {
		return nil, err
	}
	target := lossTarget(rs)
	for _, r := range rs {
		res.Rows = append(res.Rows, []string{r.Algo, f1(r.TotalTime), f1(r.EpochToLoss(target)),
			f1(r.TimeToLoss(target)), pct(r.FinalAccuracy)})
		res.Curves[r.Algo] = r.Curve
	}
	res.Notes = append(res.Notes,
		"paper shape: PS-asyn worst per-epoch convergence; PS-syn slowest in time; NetMax fastest in time",
		"paper Table VI: all accuracies ~63-64%; NetMax slightly ahead; MobileNet below ResNet18's ~72% on CIFAR100")
	return res, nil
}

// runFig15 reproduces Fig. 15: plain AD-PSGD vs AD-PSGD+Monitor vs NetMax.
func runFig15(opt Options) (*Result, error) {
	epochs := scaleEpochs(40, opt)
	m := paperRun("fig15", opt)
	m.Dataset, m.Workers, m.Epochs = "CIFAR100", 8, epochs
	m.Partition = &scenario.PartitionSpec{Preset: "paper-8"}
	m.Batch, m.LR, m.LRDecayEpoch = 8, 0.03, epochs*2/3
	res := &Result{
		ID:     "fig15",
		Title:  "Extension of AD-PSGD with Network Monitor",
		Header: []string{"approach", "total time (s)", "epochs to target", "time to target (s)", "final loss"},
		Curves: map[string][]engine.Point{},
	}
	rs, err := runAll(m, "adpsgd", "adpsgd-monitor", "netmax")
	if err != nil {
		return nil, err
	}
	target := lossTarget(rs)
	for _, r := range rs {
		res.Rows = append(res.Rows, []string{r.Algo, f1(r.TotalTime), f1(r.EpochToLoss(target)),
			f1(r.TimeToLoss(target)), fmt.Sprintf("%.3f", r.FinalLoss)})
		res.Curves[r.Algo] = r.Curve
	}
	res.Notes = append(res.Notes,
		"paper shape: AD-PSGD+Monitor beats AD-PSGD in time but converges per-epoch slightly slower than NetMax (fixed vs 1/p-scaled blend weight)")
	return res, nil
}

// runFig19 reproduces Appendix G: six AWS regions, Table VII label skew,
// MobileNet and GoogLeNet, test accuracy vs time, NetMax vs AD-PSGD vs PS.
func runFig19(opt Options) (*Result, error) {
	res := &Result{
		ID:     "fig19",
		Title:  "Cross-region WAN training (6 regions, Table VII skew)",
		Header: []string{"model", "approach", "total time (s)", "time to target (s)", "accuracy"},
		Curves: map[string][]engine.Point{},
	}
	models := []string{"MobileNet", "GoogLeNet"}
	if opt.Quick {
		models = models[:1]
	}
	for _, model := range models {
		m := paperRun("fig19", opt)
		m.Dataset, m.Model, m.Workers, m.Epochs = "MNIST", model, 6, scaleEpochs(30, opt)
		m.Network = &scenario.NetworkSpec{Kind: "cross-region"}
		m.Partition = &scenario.PartitionSpec{Preset: "table-7"}
		m.Batch, m.LR = 8, 0.05
		rs, err := runAll(m, "netmax", "adpsgd", "ps-async", "ps-sync")
		if err != nil {
			return nil, err
		}
		target := lossTarget(rs)
		var netmaxT float64
		for _, r := range rs {
			res.Rows = append(res.Rows, []string{model, r.Algo, f1(r.TotalTime),
				f1(r.TimeToLoss(target)), pct(r.FinalAccuracy)})
			res.Curves[model+"/"+r.Algo] = r.Curve
			if r.Algo == "NetMax" {
				netmaxT = r.TimeToLoss(target)
			}
		}
		for _, r := range rs {
			if r.Algo != "NetMax" && netmaxT > 0 {
				if t := r.TimeToLoss(target); t > 0 {
					res.Notes = append(res.Notes, fmt.Sprintf("%s: NetMax %.2fx faster than %s", model, t/netmaxT, r.Algo))
				}
			}
		}
	}
	res.Notes = append(res.Notes, "paper: NetMax converges 1.9x/1.9x/2.1x faster than AD-PSGD/PS-asyn/PS-syn")
	return res, nil
}
