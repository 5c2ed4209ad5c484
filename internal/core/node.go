package core

import (
	"math/rand"

	"netmax/internal/policy"
)

// Node is the decision state of every asynchronous decentralized worker
// (NetMax, AD-PSGD+Monitor, AD-PSGD, SAPS-PSGD, Hop): its row of the
// communication policy, the consensus step size ρ, its EMA time vector T_i,
// and a mask of peers to skip. It trains nothing and does no I/O, so both
// runtimes drive the same state machine: the engine's behaviors hold one
// Node per simulated worker, and every live worker goroutine owns one. A
// Node is not safe for concurrent use.
type Node struct {
	id        int
	alpha     float64
	beta      float64
	averaging bool

	row     []float64 // p_i, this worker's row of the adopted policy
	uniform []float64 // fallback for a row with no peer mass
	rho     float64
	ema     []float64

	// mask marks peers to skip in selection (their row mass renormalized
	// away). An all-false mask draws exactly as no mask does.
	mask []bool
}

// NewNodes builds the decision state of every worker of the graph adj with
// learning rate alpha and EMA factor beta in (0, 1) (NewControl passes the
// resolved Options.Beta).
// averaging selects AD-PSGD's two-sided averaging (also the blend of the
// Section III-D AD-PSGD+Monitor) in place of Algorithm 2's one-sided pull.
// Each node starts on the uniform policy with ρ a quarter of the
// feasibility cap 1/(2α·deg_max), giving an initial uniform blend
// coefficient αρ·deg = 1/8.
func NewNodes(adj [][]bool, alpha, beta float64, averaging bool) []*Node {
	maxDeg := 0
	for i := range adj {
		deg := 0
		for j, ok := range adj[i] {
			if ok && j != i {
				deg++
			}
		}
		if deg > maxDeg {
			maxDeg = deg
		}
	}
	if maxDeg == 0 {
		maxDeg = 1
	}
	rho := 1 / (8 * alpha * float64(maxDeg))
	uniform := policy.Uniform(adj)
	nodes := make([]*Node, len(adj))
	for i := range nodes {
		nodes[i] = &Node{
			id:        i,
			alpha:     alpha,
			beta:      beta,
			averaging: averaging,
			row:       uniform[i],
			uniform:   uniform[i],
			rho:       rho,
			ema:       make([]float64, len(adj)),
			mask:      make([]bool, len(adj)),
		}
	}
	return nodes
}

// Select samples the peer to pull from with probability p_ij (Algorithm 2
// line 9), skipping masked peers. Returning the node's own id means "no
// pull this iteration".
func (n *Node) Select(rng *rand.Rand) int {
	return policy.SampleMasked(n.row, n.id, n.mask, rng)
}

// Coef returns the coefficient c of the blend x ← x + c(x_j − x) (Algorithm
// 2 lines 13-14): αρ(d_ij+d_ji)/(2 p_ij), which is αρ/p_ij on the undirected
// graph every policy is generated for, clamped to (0, 1] for safety when
// the live EMA and the policy briefly disagree, or 1/2 for the averaging
// blend.
func (n *Node) Coef(j int) float64 {
	if n.averaging {
		return 0.5
	}
	pij := n.row[j]
	if pij <= 0 {
		return 0
	}
	c := n.alpha * n.rho / pij
	if c > 1 {
		c = 1
	}
	return c
}

// TwoSided reports whether a pull also moves the peer, x_j ← x_j + c(x_i −
// x_j) with the same coefficient and the puller's pre-blend model. That is
// AD-PSGD's atomic averaging, which the averaging blend keeps; Algorithm
// 2's pull moves only the puller.
func (n *Node) TwoSided() bool { return n.averaging }

// Observe folds a measured iteration time with peer j into the EMA time
// vector (Algorithm 2 UPDATETIMEVECTOR) and returns the smoothed value the
// worker reports to the Network Monitor. An iteration without a pull
// (j == own id) measures no link: it returns 0, which the monitor ignores.
func (n *Node) Observe(j int, secs float64) float64 {
	if j == n.id {
		return 0
	}
	if n.ema[j] == 0 {
		n.ema[j] = secs
	} else {
		n.ema[j] = float64(n.beta*n.ema[j]) + float64((1-n.beta)*secs)
	}
	return n.ema[j]
}

// Adopt installs the node's row of policy p and the step size rho. A row
// with no peer mass — policy.Generate pins the workers Input.Alive presumes
// dead to self — is replaced by the uniform row: a node that adopts is
// running, and selecting only itself would mean never pulling, never
// reporting and never being re-admitted. Select and Coef read the same row, so a fallback pull also
// blends with a nonzero weight. Adopt never writes into p, which callers
// may share between workers.
func (n *Node) Adopt(p [][]float64, rho float64) {
	n.row = p[n.id]
	if policy.SelfOnly(n.row, n.id) {
		n.row = n.uniform
	}
	n.rho = rho
}

// Row returns the adopted policy row. Callers must not modify it.
func (n *Node) Row() []float64 { return n.row }

// SetMasked marks peer j as skipped by Select (true) or selectable again
// (false).
func (n *Node) SetMasked(j int, masked bool) { n.mask[j] = masked }

// Masked reports whether peer j is currently skipped by Select.
func (n *Node) Masked(j int) bool { return n.mask[j] }
