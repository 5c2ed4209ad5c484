package engine

import (
	"math/rand"
	"slices"
	"testing"
)

// waitBehavior is simpleBehavior except that every other Plan of worker 0
// has it wait. It records, for each wait, the earliest pending iteration
// end of the other workers and worker 0's next Plan, how many iterations
// all workers start, and how many worker 0 starts while it waits.
type waitBehavior struct {
	simpleBehavior
	ends    []float64 // each worker's latest iteration end
	plans   int
	want    []float64 // earliest other-worker event at each wait
	got     []float64 // worker 0's Plan time after each wait
	waiting bool      // whether worker 0's latest Plan was a wait
	started int
	early   int // iterations worker 0 started while waiting
}

func (w *waitBehavior) Plan(i int, now float64, rng *rand.Rand) Pull {
	if i == 0 {
		w.plans++
		w.waiting = w.plans%2 == 1
		if len(w.got) < len(w.want) {
			w.got = append(w.got, now)
		}
		if w.waiting {
			w.want = append(w.want, slices.Min(w.ends[1:]))
			return Pull{Wait: true}
		}
	}
	return w.simpleBehavior.Plan(i, now, rng)
}

func (w *waitBehavior) OnIterationEnd(i, j int, t, now float64) {
	w.ends[i] = now + t
	w.started++
	if i == 0 && w.waiting {
		w.early++
	}
}

// TestHeldWorkerStartsNoIteration pins what Pull.Wait holds back: a
// waiting worker starts no iteration while it waits, and the iteration it
// completed before the wait is counted once.
func TestHeldWorkerStartsNoIteration(t *testing.T) {
	w := &waitBehavior{simpleBehavior: simpleBehavior{m: 4}, ends: make([]float64, 4)}
	r := RunAsync(testConfig(4, 2), w, "hold")
	if len(w.want) < 2 {
		t.Fatalf("worker 0 waited %d times", len(w.want))
	}
	if w.early > 0 {
		t.Fatalf("worker 0 started %d iterations while waiting", w.early)
	}
	if r.GlobalSteps > w.started {
		t.Fatalf("%d iterations recorded, only %d started: a waiting worker's iteration counted twice", r.GlobalSteps, w.started)
	}
}

// TestInfiniteHoldWaitsForNextEvent pins when Pull.Wait, a hold with no
// end time of its own, ends: the waiting worker's next Plan runs at the
// next event of a worker that is not waiting, ties at the wait's own time
// included.
func TestInfiniteHoldWaitsForNextEvent(t *testing.T) {
	w := &waitBehavior{simpleBehavior: simpleBehavior{m: 4}, ends: make([]float64, 4)}
	RunAsync(testConfig(4, 2), w, "wait")
	if len(w.got) < 3 {
		t.Fatalf("worker 0 woke from %d waits", len(w.got))
	}
	for k, got := range w.got {
		if got != w.want[k] {
			t.Fatalf("wait %d: next Plan at %v, want the next other-worker event at %v", k, got, w.want[k])
		}
	}
}

// shareBehavior is simpleBehavior with every pull moving share of the
// model; it counts the pulls.
type shareBehavior struct {
	simpleBehavior
	share float64
	pulls int64
}

func (s *shareBehavior) Plan(i int, now float64, rng *rand.Rand) Pull {
	p := s.simpleBehavior.Plan(i, now, rng)
	p.Share = s.share
	return p
}

func (s *shareBehavior) OnIterationEnd(i, j int, t, now float64) {
	if j != i {
		s.pulls++
	}
}

func TestPullShareScalesBytes(t *testing.T) {
	cfg := testConfig(4, 2)
	s := &shareBehavior{simpleBehavior: simpleBehavior{m: 4}, share: 0.3}
	r := RunAsync(cfg, s, "share")
	want := s.pulls * int64(float64(cfg.WireBytes())*0.3)
	if s.pulls == 0 || r.BytesSent != want {
		t.Fatalf("BytesSent = %d over %d pulls, want %d", r.BytesSent, s.pulls, want)
	}
}

// TestTwoSidedPullMovesPeer checks the blend of one pull: the puller moves
// toward the peer by Coef either way, and the peer moves toward the
// puller's pre-blend model by the same Coef only when the pull is
// two-sided.
func TestTwoSidedPullMovesPeer(t *testing.T) {
	cfg := testConfig(2, 1)
	dim, classes := cfg.Part.Shards[0].Dim(), cfg.Part.Shards[0].Classes
	x0 := vector(cfg.Spec.Build(1, dim, classes))
	y0 := vector(cfg.Spec.Build(2, dim, classes))
	for _, twoSided := range []bool{false, true} {
		x, y := cfg.Spec.Build(1, dim, classes), cfg.Spec.Build(2, dim, classes)
		var ex exchange
		ex.pull(x, y, Pull{Peer: 1, Coef: 0.3, TwoSided: twoSided, Share: 1})
		wantX, wantY := cfg.Spec.Build(1, dim, classes), cfg.Spec.Build(2, dim, classes)
		wantX.BlendVector(0.3, y0)
		if twoSided {
			wantY.BlendVector(0.3, x0)
		}
		gotX, gotY, wx, wy := vector(x), vector(y), vector(wantX), vector(wantY)
		movedY := false
		for k := range gotX {
			if gotX[k] != wx[k] || gotY[k] != wy[k] {
				t.Fatalf("two-sided %v: coordinate %d is (%v, %v), want (%v, %v)", twoSided, k, gotX[k], gotY[k], wx[k], wy[k])
			}
			movedY = movedY || gotY[k] != y0[k]
		}
		if movedY != twoSided {
			t.Fatalf("two-sided %v: peer moved %v", twoSided, movedY)
		}
	}
}
