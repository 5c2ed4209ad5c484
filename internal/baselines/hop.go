package baselines

import (
	"netmax/internal/engine"
	"netmax/internal/policy"
)

// defaultHopStaleness is the default iteration-gap bound for RunHop.
const defaultHopStaleness = 4

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
	ws := cfg.Workers()
	tr := engine.NewTracker(cfg, ws, "Hop")
	m := len(ws)
	bytes := cfg.Spec.ModelBytes()
	p := policy.Uniform(cfg.Net.Topo.Adj)

	iters := make([]int, m) // completed iterations per worker
	busyUntil := make([]float64, m)
	type pending struct {
		samples    int
		comp, comm float64
	}
	pend := make([]pending, m)
	snapshot := make([]float64, ws[0].Model.VectorLen())
	own := make([]float64, ws[0].Model.VectorLen())

	var q engine.Queue
	for i := range ws {
		q.Push(0, i)
	}
	minIters := func() int {
		lo := iters[0]
		for _, v := range iters[1:] {
			if v < lo {
				lo = v
			}
		}
		return lo
	}
	for !tr.Done() && q.Len() > 0 {
		now, i := q.Pop()
		if pd := pend[i]; pd.samples > 0 {
			iters[i]++
			tr.OnIteration(now, pd.samples, pd.comp, pd.comm)
			pend[i] = pending{}
			if tr.Done() {
				break
			}
		}
		// Staleness gate: a worker too far ahead waits for the slowest.
		// Re-queue it just after the next other-worker completion.
		if iters[i] >= minIters()+staleness {
			next := now
			for j, b := range busyUntil {
				if j != i && b > now && (next == now || b < next) {
					next = b
				}
			}
			if next == now {
				next = now + 1e-6 // everyone idle: break ties and retry
			}
			q.Push(next, i)
			continue
		}
		w := ws[i]
		j := policy.Sample(p[i], i, w.Rng)
		_, samples := w.GradStep()
		if j != i {
			// AD-PSGD-style symmetric atomic averaging.
			ws[j].Model.CopyVector(snapshot)
			w.Model.CopyVector(own)
			w.Model.BlendVector(0.5, snapshot)
			ws[j].Model.BlendVector(0.5, own)
			tr.AddBytes(bytes)
		}
		iterSecs := cfg.Net.IterationTime(i, j, bytes, cfg.ComputeSecs(i), now, cfg.Overlap)
		comp := cfg.ComputeSecs(i)
		comm := iterSecs - comp
		if comm < 0 {
			comm = 0
		}
		pend[i] = pending{samples: samples, comp: comp, comm: comm}
		busyUntil[i] = now + iterSecs
		q.Push(now+iterSecs, i)
	}
	return tr.Finish()
}
