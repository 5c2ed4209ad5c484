package baselines

import (
	"math/rand"
	"slices"

	"netmax/internal/engine"
)

// defaultHopStaleness is the default iteration-gap bound for RunHop.
const defaultHopStaleness = 4

// hopAsync is AD-PSGD's uniform averaging behind a staleness gate: a worker
// too far ahead of the slowest one waits instead of starting an iteration.
type hopAsync struct {
	uniformAsync
	staleness int
	iters     []int     // completed iterations per worker
	inFlight  []bool    // whether the worker has started an iteration since its last Plan
	busyUntil []float64 // end of each worker's latest iteration
}

// Plan counts the iteration that just completed, then either holds worker
// i until the next other-worker completion or plans a uniform pull.
func (h *hopAsync) Plan(i int, now float64, rng *rand.Rand) engine.Pull {
	if h.inFlight[i] {
		h.inFlight[i] = false
		h.iters[i]++
	}
	if h.iters[i] >= slices.Min(h.iters)+h.staleness {
		next := now
		for j, b := range h.busyUntil {
			if j != i && b > now && (next == now || b < next) {
				next = b
			}
		}
		if next == now {
			next = now + 1e-6 // everyone idle: break ties and retry
		}
		return engine.Pull{Until: next}
	}
	return h.uniformAsync.Plan(i, now, rng)
}

// OnIterationEnd marks worker i's iteration as started; its next Plan
// counts it as completed.
func (h *hopAsync) OnIterationEnd(i, j int, iterSecs, now float64) {
	h.inFlight[i] = true
	h.busyUntil[i] = now + iterSecs
}

// RunHop trains with Hop-style bounded staleness [25]: workers run the
// asynchronous uniform gossip loop, but no worker may advance more than
// `staleness` iterations ahead of the slowest worker. The bound guarantees
// convergence under heterogeneity, yet — as the paper's related work notes —
// "when network links experience a continuous slowdown, the whole system
// would be dragged down by these low-speed links": a worker stuck behind a
// slow link eventually stalls everyone through the staleness gate.
func RunHop(cfg *engine.Config, staleness int) *engine.Result {
	if staleness <= 0 {
		staleness = defaultHopStaleness
	}
	m := len(cfg.Part.Shards)
	h := &hopAsync{
		uniformAsync: *newUniformAsync(cfg.Net.Topo.Adj, 1),
		staleness:    staleness,
		iters:        make([]int, m),
		inFlight:     make([]bool, m),
		busyUntil:    make([]float64, m),
	}
	return engine.RunAsync(cfg, h, "Hop")
}
