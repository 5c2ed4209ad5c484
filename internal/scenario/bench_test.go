package scenario

import "testing"

// BenchmarkPaperRun is perfbench's paper workload as a Go benchmark: NetMax
// on the paper's 8-worker heterogeneous cluster, ResNet18/CIFAR10 for 4
// epochs at seed 1, built once through BuildEngine and run once per
// operation. Each operation is one run_ms sample, so -count 10 gives a
// min-of-k record in one process:
//
//	go test -run '^$' -bench PaperRun -count 10 ./internal/scenario/
func BenchmarkPaperRun(b *testing.B) {
	m, err := Parse([]byte(`{"name": "perfbench-paper", "model": "ResNet18",
		"dataset": "CIFAR10", "workers": 8, "epochs": 4, "seed": 1, "parallelism": 1}`))
	if err != nil {
		b.Fatal(err)
	}
	cfg, runner, err := m.BuildEngine()
	if err != nil {
		b.Fatal(err)
	}
	ref := runner(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := runner(cfg); r.FinalLoss != ref.FinalLoss || r.GlobalSteps != ref.GlobalSteps {
			b.Fatalf("run %d differs from the first: loss %v vs %v", i, r.FinalLoss, ref.FinalLoss)
		}
	}
}
