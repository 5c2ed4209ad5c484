package baselines

import (
	"math"
	"math/rand"

	"netmax/internal/core"
	"netmax/internal/engine"
)

// DefaultHopStaleness is the Hop bound a manifest that sets none resolves to.
const DefaultHopStaleness = 4

// hopAsync is AD-PSGD's behavior (core.NewADPSGD) behind a staleness gate:
// a worker too far ahead of the slowest member waits instead of starting an
// iteration. A departed worker is no member, so it holds nobody back; a
// hung one stays a member and holds everyone until the hang ends.
type hopAsync struct {
	engine.AsyncBehavior
	staleness int
	iters     []int  // completed iterations per worker
	inFlight  []bool // whether the worker has started an iteration since its last Plan
	down      []bool // departed workers, from the latest membership event
}

// Plan counts the iteration that just completed, then either has worker i
// wait for another worker's next event or plans a uniform pull.
func (h *hopAsync) Plan(i int, now float64, rng *rand.Rand) engine.Pull {
	if h.inFlight[i] {
		h.inFlight[i] = false
		h.iters[i]++
	}
	if h.iters[i] >= h.slowest()+h.staleness {
		return engine.Pull{Wait: true}
	}
	return h.AsyncBehavior.Plan(i, now, rng)
}

// slowest returns the least iteration count among members, or MaxInt
// when every worker is down.
func (h *hopAsync) slowest() int {
	s := math.MaxInt
	for j, n := range h.iters {
		if !h.down[j] {
			s = min(s, n)
		}
	}
	return s
}

// OnIterationEnd marks worker i's iteration as started; its next Plan
// counts it as completed.
func (h *hopAsync) OnIterationEnd(i, j int, iterSecs, now float64) {
	h.inFlight[i] = true
	h.AsyncBehavior.OnIterationEnd(i, j, iterSecs, now)
}

// OnMembership re-admits a rejoining worker at the slowest member's
// iteration count: like a worker skipping iterations in Hop [25], it does
// not redo the iterations it missed while down, so nobody is held while it
// catches up. The iteration it had in flight died with it.
func (h *hopAsync) OnMembership(alive []bool, now float64) {
	slowest := h.slowest()
	for k, a := range alive {
		if a && h.down[k] {
			h.inFlight[k] = false
			if slowest != math.MaxInt {
				h.iters[k] = max(h.iters[k], slowest)
			}
		}
		h.down[k] = !a
	}
	h.AsyncBehavior.OnMembership(alive, now)
}

// RunHop trains with Hop-style bounded staleness [25]: workers run the
// asynchronous uniform gossip loop, but no worker may advance more than
// `staleness` iterations ahead of the slowest worker. The bound guarantees
// convergence under heterogeneity, yet — as the paper's related work notes —
// "when network links experience a continuous slowdown, the whole system
// would be dragged down by these low-speed links": a worker stuck behind a
// slow link eventually stalls everyone through the staleness gate.
// It panics on a staleness below 1.
func RunHop(cfg *engine.Config, staleness int) *engine.Result {
	return engine.RunAsync(cfg, newHopAsync(cfg.Net.Topo.Adj, cfg.LR, staleness), "Hop")
}

// newHopAsync builds Hop's behavior over the graph adj with learning rate
// alpha and the iteration-gap bound staleness (at least 1).
func newHopAsync(adj [][]bool, alpha float64, staleness int) *hopAsync {
	if staleness < 1 {
		panic("baselines: Hop's staleness bound must be at least 1")
	}
	m := len(adj)
	return &hopAsync{
		AsyncBehavior: core.NewADPSGD(adj, alpha),
		staleness:     staleness,
		iters:         make([]int, m),
		inFlight:      make([]bool, m),
		down:          make([]bool, m),
	}
}
