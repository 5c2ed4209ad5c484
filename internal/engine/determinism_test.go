package engine

import "testing"

// resultsIdentical fails the test unless a and b agree bitwise: loss curve,
// accuracy, virtual clock, traffic and cost split.
func resultsIdentical(t *testing.T, name string, a, b *Result) {
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

// TestConcurrentlyCoversAllIndices pins the scheduling helper's contract.
func TestConcurrentlyCoversAllIndices(t *testing.T) {
	for _, par := range []int{1, 2, 7, 64} {
		hits := make([]int, 33)
		Concurrently(len(hits), par, func(k int) { hits[k]++ })
		for k, h := range hits {
			if h != 1 {
				t.Fatalf("par=%d: index %d ran %d times", par, k, h)
			}
		}
	}
}

func TestResolveParallelism(t *testing.T) {
	if got := ResolveParallelism(1); got != 1 {
		t.Fatalf("ResolveParallelism(1) = %d", got)
	}
	if got := ResolveParallelism(6); got != 6 {
		t.Fatalf("ResolveParallelism(6) = %d", got)
	}
	if got := ResolveParallelism(0); got < 1 {
		t.Fatalf("ResolveParallelism(0) = %d, want >= 1", got)
	}
	prev := DefaultParallelism
	DefaultParallelism = 3
	if got := ResolveParallelism(0); got != 3 {
		t.Fatalf("ResolveParallelism(0) with default 3 = %d", got)
	}
	DefaultParallelism = prev
}
