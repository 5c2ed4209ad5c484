package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// holdBehavior is simpleBehavior except that every other Plan of worker 0
// holds it back for hold seconds. It records when worker 0 plans and
// starts iterations, and how many iterations all workers start.
type holdBehavior struct {
	simpleBehavior
	hold    float64
	plans   []float64 // virtual times of worker 0's Plan calls
	untils  []float64 // Until of each hold
	starts  []float64 // virtual times worker 0 started an iteration
	started int
}

func (h *holdBehavior) Plan(i int, now float64, rng *rand.Rand) Pull {
	if i == 0 {
		h.plans = append(h.plans, now)
		if len(h.plans)%2 == 1 {
			h.untils = append(h.untils, now+h.hold)
			return Pull{Until: now + h.hold}
		}
	}
	return h.simpleBehavior.Plan(i, now, rng)
}

func (h *holdBehavior) OnIterationEnd(i, j int, t, now float64) {
	h.started++
	if i == 0 {
		h.starts = append(h.starts, now)
	}
}

// TestHeldWorkerStartsNoIteration pins Pull.Until: a held worker starts no
// iteration, its next Plan runs at Until, and the iteration it completed
// before the hold is counted once.
func TestHeldWorkerStartsNoIteration(t *testing.T) {
	h := &holdBehavior{simpleBehavior: simpleBehavior{m: 4}, hold: 0.01}
	r := RunAsync(testConfig(4, 2), h, "hold")
	if len(h.untils) < 2 {
		t.Fatalf("worker 0 was held %d times", len(h.untils))
	}
	for k, until := range h.untils {
		if 2*k+1 >= len(h.plans) {
			break // the run ended while worker 0 was held
		}
		if got := h.plans[2*k+1]; got != until {
			t.Fatalf("hold %d: next Plan at %v, want Until %v", k, got, until)
		}
		if k < len(h.starts) && h.starts[k] != until {
			t.Fatalf("iteration %d of worker 0 started at %v, want %v (after hold %d)", k, h.starts[k], until, k)
		}
	}
	if len(h.starts) > len(h.untils) {
		t.Fatalf("worker 0 started %d iterations across %d holds", len(h.starts), len(h.untils))
	}
	if r.GlobalSteps > h.started {
		t.Fatalf("%d iterations recorded, only %d started: a held worker's iteration counted twice", r.GlobalSteps, h.started)
	}
}

// waitBehavior is simpleBehavior except that every other Plan of worker 0
// holds it with Until = +Inf. It records, for each hold, the earliest
// pending iteration end of the other workers, and worker 0's next Plan.
type waitBehavior struct {
	simpleBehavior
	ends  []float64 // each worker's latest iteration end
	plans int
	want  []float64 // earliest other-worker event at each hold
	got   []float64 // worker 0's Plan time after each hold
}

func (w *waitBehavior) Plan(i int, now float64, rng *rand.Rand) Pull {
	if i == 0 {
		w.plans++
		if len(w.got) < len(w.want) {
			w.got = append(w.got, now)
		}
		if w.plans%2 == 1 {
			w.want = append(w.want, slices.Min(w.ends[1:]))
			return Pull{Until: math.Inf(1)}
		}
	}
	return w.simpleBehavior.Plan(i, now, rng)
}

func (w *waitBehavior) OnIterationEnd(i, j int, t, now float64) { w.ends[i] = now + t }

// TestInfiniteHoldWaitsForNextEvent pins Pull.Until = +Inf: the held
// worker's next Plan runs at the next event of a worker that is not held,
// ties at the hold's own time included.
func TestInfiniteHoldWaitsForNextEvent(t *testing.T) {
	w := &waitBehavior{simpleBehavior: simpleBehavior{m: 4}, ends: make([]float64, 4)}
	RunAsync(testConfig(4, 2), w, "wait")
	if len(w.got) < 3 {
		t.Fatalf("worker 0 woke from %d holds", len(w.got))
	}
	for k, got := range w.got {
		if got != w.want[k] {
			t.Fatalf("hold %d: next Plan at %v, want the next other-worker event at %v", k, got, w.want[k])
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
	x0 := cfg.Spec.Build(1, dim, classes).Vector()
	y0 := cfg.Spec.Build(2, dim, classes).Vector()
	for _, twoSided := range []bool{false, true} {
		x, y := cfg.Spec.Build(1, dim, classes), cfg.Spec.Build(2, dim, classes)
		var ex exchange
		ex.pull(x, y, Pull{Peer: 1, Coef: 0.3, TwoSided: twoSided, Share: 1})
		wantX, wantY := cfg.Spec.Build(1, dim, classes), cfg.Spec.Build(2, dim, classes)
		wantX.BlendVector(0.3, y0)
		if twoSided {
			wantY.BlendVector(0.3, x0)
		}
		gotX, gotY, wx, wy := x.Vector(), y.Vector(), wantX.Vector(), wantY.Vector()
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
