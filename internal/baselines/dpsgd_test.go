package baselines

import (
	"math"
	"testing"

	"netmax/internal/core"
	"netmax/internal/engine"
	"netmax/internal/simnet"
)

func TestSyncDPSGDTrains(t *testing.T) {
	r := RunSyncDPSGD(hetConfig(4, 6, 3))
	checkTrains(t, r, "D-PSGD", 6)
	if r.Algo != "D-PSGD" {
		t.Fatalf("algo = %q", r.Algo)
	}
}

func TestSyncDPSGDRing(t *testing.T) {
	cfg := hetConfig(6, 4, 3)
	topo := cfg.Net.Topo
	topo.Adj = simnet.Ring(6)
	r := RunSyncDPSGD(cfg)
	if r.FinalAccuracy < 0.8 {
		t.Fatalf("ring D-PSGD accuracy = %v", r.FinalAccuracy)
	}
}

func TestSyncDPSGDDeterministic(t *testing.T) {
	a := RunSyncDPSGD(hetConfig(4, 3, 5))
	b := RunSyncDPSGD(hetConfig(4, 3, 5))
	if a.TotalTime != b.TotalTime || a.FinalLoss != b.FinalLoss {
		t.Fatal("non-deterministic")
	}
}

func TestSyncDPSGDMetropolisConsensus(t *testing.T) {
	// Metropolis weights are doubly stochastic, so without gradients the
	// models would reach exact consensus; with training they stay close.
	// Verify through the engine invariant that the averaged model performs
	// as well as training demands and that per-round costs include the
	// barrier (comm equals the slowest neighbor link each round).
	cfg := hetConfig(4, 2, 7)
	r := RunSyncDPSGD(cfg)
	if r.CommSecs <= 0 {
		t.Fatal("no communication cost recorded")
	}
	perRound := r.CommSecs / float64(r.GlobalSteps)
	// The slowest link in a heterogeneous 4-node cluster transfers the
	// ResNet18 model in >= bytes/interRate seconds.
	minExpected := float64(cfg.Spec.ModelBytes()) / simnet.DefaultIntraRate
	if perRound < minExpected {
		t.Fatalf("per-round comm %v below the fastest possible transfer %v", perRound, minExpected)
	}
}

func TestSyncDPSGDSlowerThanADPSGDOnHeterogeneous(t *testing.T) {
	dp := RunSyncDPSGD(hetConfig(8, 6, 9))
	ad := core.RunADPSGD(hetConfig(8, 6, 9))
	if dp.TotalTime <= ad.TotalTime {
		t.Fatalf("sync D-PSGD (%v) should be slower than AD-PSGD (%v)", dp.TotalTime, ad.TotalTime)
	}
}

func TestStragglerHurtsSyncMoreThanAsync(t *testing.T) {
	mk := func(scale []float64) *engine.Config {
		cfg := hetConfig(4, 4, 11)
		cfg.Net = simnet.NewHomogeneous(simnet.SingleMachine(4))
		cfg.ComputeScale = scale
		return cfg
	}
	straggler := []float64{1, 1, 6, 1}
	syncBase := RunAllreduce(mk(nil))
	syncSlow := RunAllreduce(mk(straggler))
	asyncBase := core.RunADPSGD(mk(nil))
	asyncSlow := core.RunADPSGD(mk(straggler))
	syncRatio := syncSlow.TotalTime / syncBase.TotalTime
	asyncRatio := asyncSlow.TotalTime / asyncBase.TotalTime
	if syncRatio <= asyncRatio {
		t.Fatalf("sync straggler penalty %v should exceed async %v", syncRatio, asyncRatio)
	}
	if math.Abs(asyncRatio-1) > 1.0 {
		t.Fatalf("async penalty %v too large for one slow worker", asyncRatio)
	}
}
