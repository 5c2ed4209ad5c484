package baselines

import (
	"netmax/internal/engine"
	"netmax/internal/tensor"
)

// RunSyncDPSGD trains with synchronous decentralized parallel SGD in the
// style of D-PSGD/D² [9, 10]: every round each worker takes a local
// gradient step and then averages its model with all of its neighbors'
// models using uniform Metropolis weights. All workers advance in lockstep,
// so the round time is governed by the slowest worker-neighbor transfer —
// the synchronization cost Section I attributes to sync D-PSGD.
func RunSyncDPSGD(cfg *engine.Config) *engine.Result {
	ws := cfg.Workers()
	m := len(ws)
	bytes := cfg.Spec.ModelBytes()
	vlen := ws[0].Model.VectorLen()
	adj := cfg.Net.Topo.Adj

	// Metropolis-Hastings mixing weights: symmetric, doubly stochastic for
	// any connected graph. Every directed edge carries one model a round.
	deg := make([]int, m)
	edges := int64(0)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j && adj[i][j] {
				deg[i]++
				edges++
			}
		}
	}
	weight := func(i, j int) float64 {
		if i == j || !adj[i][j] {
			return 0
		}
		d := deg[i]
		if deg[j] > d {
			d = deg[j]
		}
		return 1 / float64(d+1)
	}

	vecs := make([][]float64, m)
	next := make([][]float64, m)
	for i := range vecs {
		vecs[i] = make([]float64, vlen)
		next[i] = make([]float64, vlen)
	}

	step := func(k int) {
		ws[k].ComputeGrad()
		ws[k].ApplyStep()
	}
	return runRounds(cfg, ws, "D-PSGD", edges*bytes, func(now float64) float64 {
		// Local gradient steps: conceptually parallel in the algorithm, and
		// actually concurrent on the host (each worker only touches its own
		// replica; the averaging below reads models serially afterwards).
		engine.Concurrently(len(ws), cfg.Parallelism, step)
		for i, w := range ws {
			w.Model.CopyVector(vecs[i])
		}
		// Neighborhood averaging with Metropolis weights.
		for i := range next {
			self := 1.0
			for j := 0; j < m; j++ {
				self -= weight(i, j)
			}
			for k := range next[i] {
				next[i][k] = self * vecs[i][k]
			}
			for j := 0; j < m; j++ {
				if wij := weight(i, j); wij > 0 {
					tensor.AddScaled(next[i], vecs[j], wij)
				}
			}
		}
		for i, w := range ws {
			w.Model.SetVector(next[i])
		}
		// Round time: compute plus the slowest neighbor transfer at the
		// current virtual time (all exchanges happen concurrently, barrier
		// at the end).
		comm := 0.0
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if i != j && adj[i][j] {
					if t := cfg.Net.TransferTime(i, j, bytes, now); t > comm {
						comm = t
					}
				}
			}
		}
		return comm
	})
}
