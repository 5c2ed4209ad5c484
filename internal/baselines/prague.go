package baselines

import (
	"cmp"
	"math/rand"
	"slices"

	"netmax/internal/engine"
)

// pragueGroupSize is the partial-allreduce group size. Prague [14] draws
// random groups each "iteration"; four is representative of its evaluation.
const pragueGroupSize = 4

// RunPrague trains with Prague-style partial allreduce [14]: the earliest
// free workers form a group, locally step, then average their models with an
// intra-group ring allreduce. Groups proceed independently (tolerating
// stragglers), but concurrent groups share the inter-machine fabric, so each
// machine-spanning group's transfer is stretched by the number of
// simultaneously active machine-spanning groups — the congestion the paper
// blames for Prague's high communication cost (Section V-B).
func RunPrague(cfg *engine.Config) *engine.Result {
	ws := cfg.Workers()
	tr := engine.NewTracker(cfg, ws, "Prague")
	m := len(ws)
	g := pragueGroupSize
	if g > m {
		g = m
	}
	bytes := cfg.Spec.ModelBytes()
	mean := make([]float64, ws[0].Model.VectorLen())
	rng := rand.New(rand.NewSource(cfg.Seed + 777))

	freeAt := make([]float64, m)
	// Active machine-spanning group intervals for the contention model.
	// Round starts never decrease, so a worker joins a new group only
	// after its last one has ended: the groups in flight are disjoint, and
	// at most m/g are active at once.
	type interval struct{ start, end float64 }
	active := make([]interval, 0, m/g)

	spansMachines := func(members []int) bool {
		mac := cfg.Net.Topo.Machine
		for _, w := range members[1:] {
			if mac[w] != mac[members[0]] {
				return true
			}
		}
		return false
	}

	// order is the round's worker ranking; members, its first g entries,
	// lives only until the next round overwrites it.
	order := make([]int, m)
	for !tr.Done() {
		// Pick the g earliest-free workers; random tie-break keeps grouping
		// random when many are free (Prague's randomized grouping).
		for i := range order {
			order[i] = i
		}
		rng.Shuffle(m, func(a, b int) { order[a], order[b] = order[b], order[a] })
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(freeAt[a], freeAt[b]) })
		members := order[:g]
		start := 0.0
		for _, w := range members {
			if freeAt[w] > start {
				start = freeAt[w]
			}
		}

		// Local gradient steps, in member order.
		for _, w := range members {
			ws[w].ComputeGrad()
			ws[w].ApplyStep()
		}
		// Partial allreduce: group model average.
		clear(mean)
		for _, w := range members {
			ws[w].Model.AddVectorTo(mean)
		}
		for i := range mean {
			mean[i] /= float64(g)
		}
		for _, w := range members {
			ws[w].Model.SetVector(mean)
		}

		// Timing: intra-group ring, slowest group link, stretched by the
		// number of concurrently active machine-spanning groups.
		comm := ringTime(cfg, members, start)
		groupComp := 0.0
		for _, w := range members {
			if c := cfg.ComputeSecs(w); c > groupComp {
				groupComp = c
			}
		}
		if spansMachines(members) {
			contention := 1
			keep := active[:0]
			for _, iv := range active {
				if iv.end > start {
					keep = append(keep, iv)
					contention++
				}
			}
			active = keep
			comm = float64(comm * float64(contention))
			active = append(active, interval{start: start, end: start + groupComp + comm})
		}
		// Every member sends and receives 2(g-1) chunks, so the group's
		// ring moves 2(g-1) whole models, as RunAllreduce charges for M.
		tr.AddBytes(2 * int64(g-1) * bytes)
		end := start + groupComp + comm
		for _, w := range members {
			freeAt[w] = end
			tr.OnIteration(end, ws[w].Batch, groupComp, comm)
			if tr.Done() {
				break
			}
		}
	}
	return tr.Finish()
}
