package experiments

import (
	"fmt"

	"netmax/internal/core"
	"netmax/internal/engine"
	"netmax/internal/nn"
	"netmax/internal/simnet"
)

func init() {
	register("fig3", "Iteration time: intra- vs inter-machine communication", runFig3)
	register("fig5", "Average epoch time decomposition, 8 workers, heterogeneous", runFig5)
	register("fig6", "Average epoch time decomposition, 8 workers, homogeneous", runFig6)
	register("fig7", "Ablation: serial/parallel x uniform/adaptive", runFig7)
	register("fig8", "Training loss vs time, 8 workers, heterogeneous", runFig8)
	register("fig9", "Training loss vs time, 8 workers, homogeneous", runFig9)
	register("fig10", "Speedup vs worker count, heterogeneous", runFig10)
	register("fig11", "Speedup vs worker count, homogeneous", runFig11)
}

// runFig3 measures t_{i,m} = max(C_i, N_{i,m}) for an intra-machine and an
// inter-machine peer, for ResNet18 and VGG19 (paper Fig. 3).
func runFig3(opt Options) (*Result, error) {
	topo := simnet.PaperCluster(8)
	net := simnet.NewStatic(topo)
	res := &Result{
		ID:     "fig3",
		Title:  "Average iteration time (s): intra- vs inter-machine",
		Header: []string{"model", "intra-machine", "inter-machine", "ratio"},
	}
	for _, spec := range []nn.ModelSpec{nn.SimResNet18, nn.SimVGG19} {
		intra := net.IterationTime(0, 1, spec.ModelBytes(), spec.ComputeSecs, 0, true)
		inter := net.IterationTime(0, 7, spec.ModelBytes(), spec.ComputeSecs, 0, true)
		res.Rows = append(res.Rows, []string{spec.Name, f2(intra), f2(inter), f2(inter / intra)})
	}
	res.Notes = append(res.Notes, "paper shape: inter-machine 2-4x intra; VGG19 > ResNet18")
	return res, nil
}

func epochTimeDecomposition(id, title string, homogeneous bool, opt Options) (*Result, error) {
	const workers = 8
	res := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"model", "approach", "comp cost (s)", "comm cost (s)", "epoch time (s)"},
	}
	for _, model := range []string{"ResNet18", "VGG19"} {
		m := paperRun(id, opt)
		m.Model, m.Workers, m.Epochs = model, workers, scaleEpochs(16, opt)
		if homogeneous {
			onSwitch(m)
		}
		rs, err := runAll(m, clusterAlgos...)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			res.Rows = append(res.Rows, []string{
				model, r.Algo,
				f2(r.CompCostPerEpoch(workers)), f2(r.CommCostPerEpoch(workers)),
				f2(r.AvgEpochTime()),
			})
		}
	}
	return res, nil
}

// runFig5 reproduces the heterogeneous epoch-time bars (paper Fig. 5).
func runFig5(opt Options) (*Result, error) {
	res, err := epochTimeDecomposition("fig5", "Avg epoch time, heterogeneous network", false, opt)
	if err == nil {
		res.Notes = append(res.Notes,
			"paper shape: comp costs ~equal; NetMax lowest comm; Prague highest comm",
			"paper: NetMax cuts ResNet18 comm by 83.4%/81.7%/63.7% vs Prague/Allreduce/AD-PSGD")
	}
	return res, err
}

// runFig6 reproduces the homogeneous epoch-time bars (paper Fig. 6).
func runFig6(opt Options) (*Result, error) {
	res, err := epochTimeDecomposition("fig6", "Avg epoch time, homogeneous network", true, opt)
	if err == nil {
		res.Notes = append(res.Notes,
			"paper shape: comm costs much lower than Fig.5; NetMax ~ AD-PSGD < Allreduce < Prague")
	}
	return res, err
}

// runFig7 reproduces the source-of-improvement ablation (paper Fig. 7):
// serial vs parallel execution x uniform vs adaptive probabilities.
func runFig7(opt Options) (*Result, error) {
	res := &Result{
		ID:     "fig7",
		Title:  "Avg epoch time (s) under the four NetMax settings",
		Header: []string{"model", "serial+uniform", "parallel+uniform", "serial+adaptive", "parallel+adaptive"},
	}
	// Epoch times under the dynamic slowdown schedule are noisy (one 2-100x
	// slow link moves around), so each setting is averaged over several
	// network seeds — the paper averages implicitly over much longer runs.
	netSeeds := []int64{opt.Seed + 5, opt.Seed + 105, opt.Seed + 205}
	if opt.Quick {
		netSeeds = netSeeds[:1]
	}
	for _, model := range []string{"ResNet18", "VGG19"} {
		row := []string{model}
		for _, setting := range []struct {
			overlap bool
			uniform bool
		}{{false, true}, {true, true}, {false, false}, {true, false}} {
			m := paperRun("fig7", opt)
			m.Model, m.Workers, m.Epochs = model, 8, scaleEpochs(16, opt)
			m.Overlap = ptr(setting.overlap)
			m.NetMax = &core.Options{UniformPolicy: setting.uniform}
			sum := 0.0
			for _, ns := range netSeeds {
				m.Network.Seed = ptr(ns)
				r, err := run(m)
				if err != nil {
					return nil, err
				}
				sum += r.AvgEpochTime()
			}
			row = append(row, f1(sum/float64(len(netSeeds))))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper shape: adaptive probabilities contribute most of the gain; parallelism is marginal")
	return res, nil
}

func lossVsTime(id, title string, homogeneous bool, opt Options) (*Result, error) {
	epochs := scaleEpochs(40, opt)
	res := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"model", "approach", "total time (s)", "time to target loss (s)", "final loss"},
	}
	for _, model := range []string{"ResNet18", "VGG19"} {
		// LR 0.03 keeps per-epoch convergence comparable across approaches
		// (see the segmentsExperiment comment): at 0.1 the exact-averaging
		// baselines hit the plateau in 1-2 epochs on this substrate, which
		// the paper's DNN workloads do not exhibit.
		m := paperRun(id, opt)
		m.Model, m.Workers, m.Epochs = model, 8, epochs
		m.LR, m.LRDecayEpoch = 0.03, epochs*7/10
		m.Network.Seed = ptr(m.Seed) // the races draw dynamics from the model seed
		if homogeneous {
			onSwitch(m)
		}
		rs, target, err := race(res, m, clusterAlgos, []string{model}, totalTime, timeToTarget, finalLoss)
		if err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes, speedups(rs, target, func(algo string, x float64) string {
			return fmt.Sprintf("%s: NetMax speedup over %s at loss %.3f: %.2fx", model, algo, target, x)
		})...)
	}
	return res, nil
}

// runFig8 reproduces the heterogeneous convergence race (paper Fig. 8:
// NetMax 3.7x/3.4x/1.9x over Prague/Allreduce/AD-PSGD for ResNet18).
func runFig8(opt Options) (*Result, error) {
	res, err := lossVsTime("fig8", "Training loss vs time, heterogeneous", false, opt)
	if err == nil {
		res.Notes = append(res.Notes, "paper: ResNet18 speedups 3.7x/3.4x/1.9x; VGG19 2.8x/2.2x/1.7x")
	}
	return res, err
}

// runFig9 reproduces the homogeneous convergence race (paper Fig. 9:
// NetMax ~ AD-PSGD, both ahead of Allreduce and Prague).
func runFig9(opt Options) (*Result, error) {
	res, err := lossVsTime("fig9", "Training loss vs time, homogeneous", true, opt)
	if err == nil {
		res.Notes = append(res.Notes, "paper shape: NetMax and AD-PSGD nearly coincide; both beat Allreduce/Prague")
	}
	return res, err
}

func scalability(id, title string, nodeCounts []int, homogeneous bool, opt Options) (*Result, error) {
	res := &Result{
		ID:    id,
		Title: title,
		Header: append([]string{"approach"}, func() []string {
			var h []string
			for _, n := range nodeCounts {
				h = append(h, fmt.Sprintf("%d nodes", n))
			}
			return h
		}()...),
	}
	runs := make([][]*engine.Result, len(nodeCounts)) // [node count][clusterAlgos]
	for i, n := range nodeCounts {
		m := paperRun(id, opt)
		m.Workers, m.Epochs = n, scaleEpochs(12, opt)
		if homogeneous {
			onSwitch(m)
		}
		rs, err := runAll(m, clusterAlgos...)
		if err != nil {
			return nil, err
		}
		runs[i] = rs
	}
	// Baseline: Allreduce (clusterAlgos[1]) with the smallest node count,
	// the paper's reference run.
	base := runs[0][1].TotalTime
	for k, label := range []string{"Prague", "Allreduce", "AD-PSGD", "NetMax"} {
		row := []string{label}
		for i := range nodeCounts {
			row = append(row, f2(base/runs[i][k].TotalTime))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes, "speedup = time of Allreduce@"+fmt.Sprint(nodeCounts[0])+" / time of run (same epochs)")
	return res, nil
}

// runFig10 reproduces heterogeneous scalability (paper Fig. 10).
func runFig10(opt Options) (*Result, error) {
	counts := []int{4, 8, 12, 16}
	if opt.Quick {
		counts = []int{4, 8}
	}
	res, err := scalability("fig10", "Speedup vs workers, heterogeneous (ResNet18)", counts, false, opt)
	if err == nil {
		res.Notes = append(res.Notes, "paper shape: NetMax scales best; gap widens with more nodes")
	}
	return res, err
}

// runFig11 reproduces homogeneous scalability (paper Fig. 11).
func runFig11(opt Options) (*Result, error) {
	counts := []int{4, 6, 8}
	if opt.Quick {
		counts = []int{4, 8}
	}
	res, err := scalability("fig11", "Speedup vs workers, homogeneous (ResNet18)", counts, true, opt)
	if err == nil {
		res.Notes = append(res.Notes, "paper shape: NetMax >= AD-PSGD > Allreduce > Prague")
	}
	return res, err
}
