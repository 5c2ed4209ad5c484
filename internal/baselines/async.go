// Package baselines implements the decentralized and centralized training
// approaches NetMax is compared against in the paper's evaluation:
// AD-PSGD [11], SAPS-PSGD [15], Allreduce-SGD [8], Prague [14], and
// synchronous/asynchronous parameter servers [6, 7].
// All run on the same discrete-event engine and simnet timing model as
// NetMax, so every comparison isolates the algorithmic difference.
package baselines

import (
	"math/rand"
	"sort"

	"netmax/internal/engine"
	"netmax/internal/policy"
)

// uniformAsync is the AD-PSGD behavior: uniform neighbor selection
// over a (possibly sparsified) adjacency, two-sided averaging with weight
// 1/2 (scaled by the share of the model each pull moves), no periodic
// control. Departed peers are masked out of the selection the way NetMax's
// nodes mask them — process-level crash detection is fast even for a
// policy-less algorithm — but the selection never *adapts*: hung peers and
// slow links keep their uniform share, which is exactly the weakness the
// churn scenarios demonstrate.
type uniformAsync struct {
	p     [][]float64
	down  []bool // departed workers, from the latest membership event
	share float64
}

func newUniformAsync(adj [][]bool, share float64) *uniformAsync {
	return &uniformAsync{p: policy.Uniform(adj), down: make([]bool, len(adj)), share: share}
}

// Plan averages with a uniformly sampled live neighbor. The averaging is
// two-sided: AD-PSGD's atomic averaging sets both endpoints to the midpoint
// [11].
func (u *uniformAsync) Plan(i int, now float64, rng *rand.Rand) engine.Pull {
	return engine.Pull{Peer: policy.SampleMasked(u.p[i], i, u.down, rng), Coef: 0.5 * u.share, TwoSided: true, Share: u.share}
}

func (u *uniformAsync) OnIterationEnd(i, j int, s, now float64) {}

// OnMembership masks departed peers out of the selection, and re-admits
// rejoining ones.
func (u *uniformAsync) OnMembership(alive []bool, now float64) {
	for k, a := range alive {
		u.down[k] = !a
	}
}

// RunADPSGD trains with asynchronous decentralized parallel SGD [11]: each
// worker repeatedly averages its model with one uniformly random neighbor.
func RunADPSGD(cfg *engine.Config) *engine.Result {
	return engine.RunAsync(cfg, newUniformAsync(cfg.Net.Topo.Adj, 1), "AD-PSGD")
}

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

// RunSAPS trains with SAPS-PSGD [15]: sparsified uniform gossip restricted
// to the static initially-fast subgraph.
func RunSAPS(cfg *engine.Config) *engine.Result {
	return engine.RunAsync(cfg, newUniformAsync(sapsSubgraph(cfg), sapsSparsity), "SAPS-PSGD")
}
