package baselines

import (
	"testing"

	"netmax/internal/core"
	"netmax/internal/engine"
	"netmax/internal/simnet"
)

func TestHopTrains(t *testing.T) {
	r := RunHop(hetConfig(4, 6, 3), 4)
	checkTrains(t, r, "Hop", 6)
	if r.Algo != "Hop" {
		t.Fatalf("algo = %q", r.Algo)
	}
}

func TestHopDefaultStaleness(t *testing.T) {
	r := RunHop(hetConfig(4, 3, 3), 0)
	if r.Epochs != 3 {
		t.Fatalf("epochs = %d", r.Epochs)
	}
}

func TestHopDeterministic(t *testing.T) {
	a := RunHop(hetConfig(4, 3, 5), 4)
	b := RunHop(hetConfig(4, 3, 5), 4)
	if a.TotalTime != b.TotalTime || a.FinalLoss != b.FinalLoss {
		t.Fatal("non-deterministic")
	}
}

func TestHopBoundedStalenessEnforced(t *testing.T) {
	// With a straggler computing 10x slower, an unbounded async run lets
	// the fast workers race far ahead (they process most of the samples);
	// Hop's gate keeps per-worker progress balanced, which shows up as a
	// larger slowdown relative to the uniform-compute run.
	mk := func(scale []float64) *engine.Config {
		cfg := hetConfig(4, 4, 7)
		cfg.Net = simnet.NewHomogeneous(simnet.SingleMachine(4))
		cfg.ComputeScale = scale
		return cfg
	}
	straggler := []float64{1, 1, 10, 1}
	base := RunHop(mk(nil), 2)
	slow := RunHop(mk(straggler), 2)
	adBase := core.RunADPSGD(mk(nil))
	adSlow := core.RunADPSGD(mk(straggler))
	hopRatio := slow.TotalTime / base.TotalTime
	adRatio := adSlow.TotalTime / adBase.TotalTime
	if hopRatio <= adRatio {
		t.Fatalf("Hop's staleness bound should amplify the straggler penalty: hop %vx vs ad-psgd %vx", hopRatio, adRatio)
	}
}

func TestHopLooseBoundApproachesADPSGD(t *testing.T) {
	// With a very loose bound the gate rarely triggers: total time should
	// be close to plain AD-PSGD on the same workload.
	hop := RunHop(hetConfig(4, 4, 9), 1000)
	ad := core.RunADPSGD(hetConfig(4, 4, 9))
	ratio := hop.TotalTime / ad.TotalTime
	if ratio < 0.7 || ratio > 1.5 {
		t.Fatalf("loose-bound Hop time ratio vs AD-PSGD = %v, want ~1", ratio)
	}
}
