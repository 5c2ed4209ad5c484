package scenario

import (
	"testing"

	"netmax/internal/core"
	"netmax/internal/data"
	"netmax/internal/engine"
	"netmax/internal/nn"
	"netmax/internal/simnet"
)

// flagConfig hand-assembles the engine configuration the way the examples
// and cmd flags historically did — the construction BuildEngine must match
// call-for-call, including its eval-subset convention.
func flagConfig(spec nn.ModelSpec, ds data.Spec, workers, epochs int, seed int64, net *simnet.Network) *engine.Config {
	train, test := ds.Generate(seed)
	evalN := 400
	if evalN > train.Len() {
		evalN = train.Len()
	}
	idx := make([]int, evalN)
	for i := range idx {
		idx[i] = i
	}
	return &engine.Config{
		Spec:    spec,
		Part:    data.Uniform(train, workers, seed),
		Eval:    train.Slice(idx),
		Test:    test,
		Net:     net,
		LR:      0.1,
		Batch:   16,
		Epochs:  epochs,
		Seed:    seed,
		Overlap: true,
	}
}

// requireIdentical asserts two engine results are bitwise equal on every
// numeric field, including the full loss curve.
func requireIdentical(t *testing.T, name string, a, b *engine.Result) {
	t.Helper()
	if a.FinalLoss != b.FinalLoss {
		t.Fatalf("%s: FinalLoss %v vs %v", name, a.FinalLoss, b.FinalLoss)
	}
	if a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("%s: FinalAccuracy %v vs %v", name, a.FinalAccuracy, b.FinalAccuracy)
	}
	if a.TotalTime != b.TotalTime {
		t.Fatalf("%s: TotalTime %v vs %v", name, a.TotalTime, b.TotalTime)
	}
	if a.GlobalSteps != b.GlobalSteps || a.Epochs != b.Epochs || a.BytesSent != b.BytesSent {
		t.Fatalf("%s: steps/epochs/bytes differ: %+v vs %+v", name, a, b)
	}
	if a.CompSecs != b.CompSecs || a.CommSecs != b.CommSecs {
		t.Fatalf("%s: cost decomposition differs", name)
	}
	if len(a.Curve) != len(b.Curve) {
		t.Fatalf("%s: curve lengths %d vs %d", name, len(a.Curve), len(b.Curve))
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("%s: curve[%d] = %+v vs %+v", name, i, a.Curve[i], b.Curve[i])
		}
	}
}

// TestManifestMatchesFlagPathBitwise is the scenario determinism gate: a
// nil-failure, nil-codec manifest must reproduce the hand-assembled flag
// path bitwise — same loss curve, same virtual clock, same traffic — for
// both the NetMax monitor loop and a monitor-free baseline, on both a
// static and the dynamic heterogeneous network.
func TestManifestMatchesFlagPathBitwise(t *testing.T) {
	const workers, epochs, seed = 4, 2, 1

	t.Run("netmax static", func(t *testing.T) {
		cfg := flagConfig(nn.SimMobileNet, data.SynthMNIST, workers, epochs, seed,
			simnet.NewStatic(simnet.PaperCluster(workers)))
		want := core.Run(cfg, core.Options{TsSecs: core.DefaultMonitorTs})

		m := &Manifest{
			Name: "gate-netmax-static", Model: "MobileNet", Dataset: "MNIST",
			Workers: workers, Epochs: epochs, Seed: seed,
			Network: &NetworkSpec{Kind: "static"},
		}
		rep, err := Run(m, RunOptions{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		requireIdentical(t, "netmax/static", want, rep.Engine)
	})

	t.Run("netmax heterogeneous", func(t *testing.T) {
		// The hand-assembled heterogeneous path: dynamic slow link with the
		// default period over an effectively unbounded horizon, seeded by
		// the run seed — all defaults in the manifest path.
		cfg := flagConfig(nn.SimMobileNet, data.SynthMNIST, workers, epochs, seed,
			simnet.NewHeterogeneousPeriod(simnet.PaperCluster(workers), seed, DefaultHorizon, DefaultSlowPeriod))
		want := core.Run(cfg, core.Options{TsSecs: core.DefaultMonitorTs})

		m := &Manifest{
			Name: "gate-netmax-het", Model: "MobileNet", Dataset: "MNIST",
			Workers: workers, Epochs: epochs, Seed: seed,
		}
		rep, err := Run(m, RunOptions{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		requireIdentical(t, "netmax/heterogeneous", want, rep.Engine)
	})

	t.Run("adpsgd static", func(t *testing.T) {
		cfg := flagConfig(nn.SimMobileNet, data.SynthMNIST, workers, epochs, seed,
			simnet.NewStatic(simnet.PaperCluster(workers)))
		want := core.RunADPSGD(cfg)

		m := &Manifest{
			Name: "gate-adpsgd", Algorithm: "adpsgd", Model: "MobileNet", Dataset: "MNIST",
			Workers: workers, Epochs: epochs, Seed: seed,
			Network: &NetworkSpec{Kind: "static"},
		}
		rep, err := Run(m, RunOptions{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		requireIdentical(t, "adpsgd/static", want, rep.Engine)
	})

	t.Run("declarative failures", func(t *testing.T) {
		// A manifest failure block must build the same schedule as the
		// chained builder API: identical churn trajectories.
		mk := func() *engine.Config {
			return flagConfig(nn.SimMobileNet, data.SynthMNIST, workers, epochs, seed,
				simnet.NewStatic(simnet.PaperCluster(workers)))
		}
		cfg := mk()
		fs := simnet.NewFailureSchedule()
		fs.DetectSecs = 0.5
		fs.Crash(1, 2, 5).Hang(2, 1, 3)
		cfg.Failures = fs
		want := core.Run(cfg, core.Options{TsSecs: core.DefaultMonitorTs, StalePeriods: 2})

		m := &Manifest{
			Name: "gate-failures", Model: "MobileNet", Dataset: "MNIST",
			Workers: workers, Epochs: epochs, Seed: seed,
			Network: &NetworkSpec{Kind: "static"},
			NetMax:  &core.Options{StalePeriods: 2},
			Failures: &FailureSpec{
				DetectSecs: 0.5,
				Events: []FailureEvent{
					{Kind: "crash", Worker: 1, At: 2, Rejoin: 5},
					{Kind: "hang", Worker: 2, At: 1, Until: 3},
				},
			},
		}
		rep, err := Run(m, RunOptions{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		requireIdentical(t, "failures", want, rep.Engine)
	})

	t.Run("random churn", func(t *testing.T) {
		cfg := flagConfig(nn.SimMobileNet, data.SynthMNIST, workers, epochs, seed,
			simnet.NewStatic(simnet.PaperCluster(workers)))
		fs := simnet.NewRandomChurn(workers, seed, 50, 1, 3)
		fs.DetectSecs = 0.5
		cfg.Failures = fs
		want := core.RunADPSGD(cfg)

		m := &Manifest{
			Name: "gate-random-churn", Algorithm: "adpsgd", Model: "MobileNet", Dataset: "MNIST",
			Workers: workers, Epochs: epochs, Seed: seed,
			Network: &NetworkSpec{Kind: "static"},
			Failures: &FailureSpec{
				DetectSecs:  0.5,
				RandomChurn: &RandomChurnSpec{HorizonSecs: 50, CrashesPerWorker: 1, MeanDownSecs: 3},
			},
		}
		rep, err := Run(m, RunOptions{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		requireIdentical(t, "random-churn", want, rep.Engine)
	})
}
