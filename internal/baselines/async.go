// Package baselines implements the decentralized and centralized training
// approaches NetMax is compared against in the paper's evaluation:
// SAPS-PSGD [15], Allreduce-SGD [8], Prague [14], and
// synchronous/asynchronous parameter servers [6, 7]. AD-PSGD [11] is
// core.RunADPSGD, since core.Node is every asynchronous decentralized
// worker; SAPS-PSGD and Hop wrap its behavior. All run on the same
// discrete-event engine and simnet timing model as NetMax, so every
// comparison isolates the algorithmic difference.
package baselines

import (
	"math/rand"
	"sort"

	"netmax/internal/core"
	"netmax/internal/engine"
)

// sapsSubgraph builds SAPS-PSGD's static communication subgraph [15]: the
// links that are fastest *at time zero*. Edges are added in descending
// initial-rate order until the subgraph is connected and every node has
// degree >= 2 (or its full degree, if smaller). Because the subgraph is
// frozen, a link that later becomes slow keeps being used — the weakness
// the paper's Fig. 2 discussion calls out.
func sapsSubgraph(cfg *engine.Config) [][]bool {
	topo := cfg.Net.Topo
	m := topo.M
	type edge struct {
		i, j int
		rate float64
	}
	var edges []edge
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if topo.Adj[i][j] {
				edges = append(edges, edge{i, j, cfg.Net.Rate(i, j, 0)})
			}
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].rate != edges[b].rate {
			return edges[a].rate > edges[b].rate
		}
		if edges[a].i != edges[b].i {
			return edges[a].i < edges[b].i
		}
		return edges[a].j < edges[b].j
	})
	sub := make([][]bool, m)
	for i := range sub {
		sub[i] = make([]bool, m)
	}
	deg := make([]int, m)
	parent := make([]int, m)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		needTree := find(e.i) != find(e.j)
		needDeg := deg[e.i] < 2 || deg[e.j] < 2
		if !needTree && !needDeg {
			continue
		}
		sub[e.i][e.j] = true
		sub[e.j][e.i] = true
		deg[e.i]++
		deg[e.j]++
		if needTree {
			parent[find(e.i)] = find(e.j)
		}
	}
	return sub
}

// sapsSparsity is the fraction of the model SAPS-PSGD transfers per pull:
// the method's second ingredient (besides the static fast subgraph) is
// model sparsification [15]. The averaging weight is scaled down
// accordingly (in expectation over the transferred coordinates).
const sapsSparsity = 0.25

// saps makes each of AD-PSGD's pulls move a sapsSparsity share of the
// model, with the averaging weight scaled by the same share.
type saps struct{ engine.AsyncBehavior }

func (s saps) Plan(i int, now float64, rng *rand.Rand) engine.Pull {
	p := s.AsyncBehavior.Plan(i, now, rng)
	p.Coef *= sapsSparsity
	p.Share = sapsSparsity
	return p
}

// RunSAPS trains with SAPS-PSGD [15]: sparsified uniform gossip restricted
// to the static initially-fast subgraph.
func RunSAPS(cfg *engine.Config) *engine.Result {
	return engine.RunAsync(cfg, saps{core.NewADPSGD(sapsSubgraph(cfg), cfg.LR)}, "SAPS-PSGD")
}
