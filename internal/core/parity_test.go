package core_test

import (
	"context"
	"testing"
	"time"

	"netmax/internal/core"
	"netmax/internal/live"
	"netmax/internal/scenario"
)

// TestEngineLiveParity runs one 4-worker NetMax manifest on both runtimes:
// on the engine over the paper cluster, which at 4 workers is two machines
// (workers 0-1 and 2-3 share one), and on the live runtime's loopback-TCP
// hub with the same split emulated by latency (1 ms within a pair, 6 ms
// across). Both drive core.Node, so this checks what each runtime wires
// around it — clock, network and monitor: both groups must train, and each
// converged policy must give worker 0's co-located peer, worker 1, more of
// its pulls than either cross-machine peer.
//
// On the engine, whose clock is virtual, worker 1 must also get the
// majority of worker 0's peer mass (it gets 0.53). A live group measures
// wall time, and on a loaded host the scheduler adds milliseconds to every
// 1 ms link: on a 2-CPU host running other tests beside it, with and
// without the race detector, its share read 0.48-0.66, too close to one
// half for a gate.
func TestEngineLiveParity(t *testing.T) {
	const shared = `"model": "ResNet18", "dataset": "MNIST", "workers": 4, "seed": 3`
	em, err := scenario.Parse([]byte(`{"name": "parity-engine", ` + shared + `, "epochs": 4,
		"topology": {"kind": "paper-cluster"}, "network": {"kind": "static"}}`))
	if err != nil {
		t.Fatal(err)
	}
	lm, err := scenario.Parse([]byte(`{"name": "parity-live", "runtime": "live", ` + shared + `,
		"live": {"iterations": 300, "ts_millis": 100,
			"latency": {"colocated": 2, "intra_millis": 1, "inter_millis": 6}}}`))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("engine", func(t *testing.T) {
		cfg, run, err := em.BuildEngine()
		if err != nil {
			t.Fatal(err)
		}
		// The manifest sets no netmax block, so its runner is core.Run
		// with the default monitor period; RunNodes must match it bitwise.
		r, nodes := core.RunNodes(cfg, core.Options{TsSecs: core.DefaultMonitorTs})
		if ref := run(cfg); ref.FinalLoss != r.FinalLoss || ref.TotalTime != r.TotalTime {
			t.Fatalf("RunNodes (loss %v, time %v) differs from the manifest's runner (%v, %v)",
				r.FinalLoss, r.TotalTime, ref.FinalLoss, ref.TotalTime)
		}
		x, labels := cfg.Eval.Batch(0, cfg.Eval.Len())
		checkTrained(t, r.FinalLoss, cfg.Workers()[0].Model.Loss(x, labels).Item())
		row := nodes[0].Row()
		checkPrefersPeer1(t, row)
		if peers := row[1] + row[2] + row[3]; !(row[1] > peers/2) {
			t.Fatalf("worker 0's policy row %v gives worker 1 %v of %v peer mass", row, row[1], peers)
		}
	})

	t.Run("live", func(t *testing.T) {
		cfg, hub, closeHub, err := lm.BuildLive()
		if err != nil {
			t.Fatal(err)
		}
		defer closeHub()
		start := time.Now()
		stats := live.Run(context.Background(), cfg, hub)
		t.Logf("live run: %v wall, %d policy versions, iterations %v",
			time.Since(start), stats.PolicyVersions, stats.IterationsPerWorker)
		if stats.PolicyVersions == 0 {
			t.Fatal("the live monitor never published a policy")
		}
		shard := cfg.Part.Shards[0]
		x, labels := cfg.Test.Batch(0, cfg.Test.Len())
		checkTrained(t, stats.FinalLoss, cfg.Spec.Build(cfg.Seed, shard.Dim(), shard.Classes).Loss(x, labels).Item())
		pushed := hub.Pushed(0)
		if pushed == nil {
			t.Fatal("the live monitor never pushed worker 0 a policy")
		}
		row := pushed.P[0]
		t.Logf("worker 0's policy row: %v", row)
		checkPrefersPeer1(t, row)
	})
}

func checkTrained(t *testing.T, final, initial float64) {
	t.Helper()
	if !(final < 0.5*initial) {
		t.Fatalf("final loss %v is not well below the initial model's %v", final, initial)
	}
}

// checkPrefersPeer1 asserts that worker 0's policy row gives its co-located
// peer more mass than either cross-machine peer.
func checkPrefersPeer1(t *testing.T, row []float64) {
	t.Helper()
	if !(row[1] > row[2] && row[1] > row[3]) {
		t.Fatalf("worker 0's policy row %v does not prefer its co-located peer 1", row)
	}
}
