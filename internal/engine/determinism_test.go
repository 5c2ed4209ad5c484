package engine

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

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
	for _, limit := range []int{0, 1, 2, 7, 64} {
		hits := make([]int, 33)
		Concurrently(len(hits), limit, func(k int) { hits[k]++ })
		for k, h := range hits {
			if h != 1 {
				t.Fatalf("limit=%d: index %d ran %d times", limit, k, h)
			}
		}
	}
}

// TestConcurrentlyLimitOneIsSerialLoop checks that limit 1 runs f(0) ...
// f(n-1) in order; under -race the unsynchronized append also shows that
// every call runs on the caller's goroutine.
func TestConcurrentlyLimitOneIsSerialLoop(t *testing.T) {
	var order []int
	Concurrently(9, 1, func(k int) { order = append(order, k) })
	for k, got := range order {
		if got != k {
			t.Fatalf("call %d ran f(%d): order %v", k, got, order)
		}
	}
	if len(order) != 9 {
		t.Fatalf("ran %d calls, want 9", len(order))
	}
}

// TestConcurrentlyNestedStaysInBudget is the budget's gate: with -par 2 on
// a 4-core host, nested fan-outs (a sweep over figures, each over its
// algorithms) never run more than 2 leaf calls at once.
func TestConcurrentlyNestedStaysInBudget(t *testing.T) {
	prevPar := budget.par
	defer SetParallelism(prevPar)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	SetParallelism(2)
	var mu sync.Mutex
	running, peak := 0, 0
	Concurrently(4, 0, func(int) {
		Concurrently(4, 0, func(int) {
			mu.Lock()
			running++
			peak = max(peak, running)
			mu.Unlock()
			// Hold the call open so calls that may overlap do.
			time.Sleep(time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
		})
	})
	if peak > 2 {
		t.Fatalf("%d leaf calls ran at once under SetParallelism(2)", peak)
	}
}
