package netmax

import (
	"testing"

	"netmax/internal/scenario"
	"netmax/internal/simnet"
)

// train builds a small MobileNet/MNIST run from the manifest and runs it on
// the runner its algorithm picks.
func train(t *testing.T, sc *Scenario) *Result {
	t.Helper()
	sc.Name, sc.Model, sc.Dataset, sc.Workers = "public", "MobileNet", "MNIST", 4
	cfg, run, err := sc.BuildEngine()
	if err != nil {
		t.Fatal(err)
	}
	return run(cfg)
}

func TestPublicQuickstartPath(t *testing.T) {
	r := train(t, &Scenario{Epochs: 4, LRDecayEpoch: 2})
	if r.Epochs != 4 {
		t.Fatalf("epochs = %d", r.Epochs)
	}
	if r.FinalAccuracy < 0.8 {
		t.Fatalf("accuracy = %v", r.FinalAccuracy)
	}
}

func TestPublicBaselinesShareConfigShape(t *testing.T) {
	for _, algo := range []string{"adpsgd", "allreduce"} {
		r := train(t, &Scenario{
			Algorithm: algo, Epochs: 3, LRDecayEpoch: 2,
			Topology: &scenario.TopologySpec{Kind: "single-machine"},
			Network:  &scenario.NetworkSpec{Kind: "homogeneous"},
		})
		if r.Epochs != 3 || r.TotalTime <= 0 {
			t.Fatalf("%s run incomplete: %+v", algo, r)
		}
	}
}

func TestPublicGeneratePolicy(t *testing.T) {
	times := [][]float64{
		{0, 1, 5},
		{1, 0, 5},
		{5, 5, 0},
	}
	adj := simnet.FullyConnected(3)
	pol, err := GeneratePolicy(times, adj, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Lambda2 <= 0 || pol.Lambda2 >= 1 {
		t.Fatalf("lambda2 = %v", pol.Lambda2)
	}
	if pol.P[0][1] <= pol.P[0][2] {
		t.Fatalf("fast neighbor not preferred: %v", pol.P[0])
	}
}

func TestPublicExperiment(t *testing.T) {
	res, err := Experiment("fig3", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("fig3 rows = %d", len(res.Rows))
	}
}

func TestPublicADPSGDMonitor(t *testing.T) {
	r := train(t, &Scenario{Algorithm: "adpsgd-monitor", Epochs: 3, LRDecayEpoch: 2})
	if r.Algo != "AD-PSGD+Monitor" {
		t.Fatalf("algo = %q", r.Algo)
	}
}
