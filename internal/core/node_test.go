package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netmax/internal/policy"
	"netmax/internal/simnet"
)

// TestNodeAdoptFallsBackWithoutWritingPolicy hands a node a policy whose
// own row is pinned to self, as policy.Generate does for a worker that
// Input.Alive presumes dead. The node must select and blend from the
// uniform row, and leave the matrix it was handed — shared between live
// workers — as it was.
func TestNodeAdoptFallsBackWithoutWritingPolicy(t *testing.T) {
	nodes := NewNodes(simnet.FullyConnected(3), 0.1, DefaultBeta, false)
	p := [][]float64{{0, 0.5, 0.5}, {0, 1, 0}, {0.5, 0.5, 0}}
	nodes[1].Adopt(p, 2)
	if p[1][0] != 0 || p[1][1] != 1 || p[1][2] != 0 {
		t.Fatalf("Adopt wrote into the policy it was handed: row 1 = %v", p[1])
	}
	if row := nodes[1].Row(); row[0] != 0.5 || row[1] != 0 || row[2] != 0.5 {
		t.Fatalf("self-pinned row not replaced by the uniform row: %v", row)
	}
	if c := nodes[1].Coef(0); !(c > 0) {
		t.Fatalf("fallback pull blends with coefficient %v", c)
	}
	nodes[0].Adopt(p, 2)
	if &nodes[0].Row()[0] != &p[0][0] {
		t.Fatal("a row with peer mass was not adopted as is")
	}
}

// TestNodeMaskSkipsMaskedPeer checks that masking a peer marks only that
// peer, that Select never returns it, and that unmasking restores it.
func TestNodeMaskSkipsMaskedPeer(t *testing.T) {
	n := NewNodes(simnet.FullyConnected(4), 0.1, DefaultBeta, false)[0]
	n.SetMasked(2, true)
	if !n.Masked(2) || n.Masked(1) {
		t.Fatalf("mask = %v, want only peer 2", n.mask)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200; k++ {
		if j := n.Select(rng); j == 2 {
			t.Fatal("selected a masked peer")
		}
	}
	n.SetMasked(2, false)
	if n.Masked(2) {
		t.Fatal("peer 2 still masked")
	}
}

// pull applies worker i's blend with peer j to the scalar models x as the
// engine's event loop does: BlendVector's x + c(y − x) on i, mirrored onto
// j with i's pre-blend model when the node is two-sided.
func pull(n *Node, i, j int, x []float64) {
	c, xi, xj := n.Coef(j), x[i], x[j]
	x[i] = xi + c*(xj-xi)
	if n.TwoSided() {
		x[j] = xj + c*(xi-xj)
	}
}

// TestNodeUpdateMatchesSpectralModel checks that the Y a policy is scored
// with (Eq. 22) describes the update the runtime applies. For every
// ordered pair (i, j) it builds the pull's matrix D_ij column by column, by
// pulling on the basis vectors, and requires Σ pg_i·p_ij·D_ijᵀD_ij (D = I
// for a skipped pull) to equal policy.BuildY's or BuildYAveraging's Y
// entrywise. It covers Generate's NetMax policies (one-sided) and averaging
// policies (two-sided) on full and ring graphs.
func TestNodeUpdateMatchesSpectralModel(t *testing.T) {
	const alpha = 0.1
	for _, m := range []int{4, 8, 16} {
		rng := rand.New(rand.NewSource(int64(m)))
		times := make([][]float64, m)
		for i := range times {
			times[i] = make([]float64, m)
		}
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				v := 1 + 9*rng.Float64()
				times[i][j], times[j][i] = v, v
			}
		}
		for g, adj := range [][][]bool{simnet.FullyConnected(m), simnet.Ring(m)} {
			for _, averaging := range []bool{false, true} {
				t.Run(fmt.Sprintf("N=%d/%s/averaging=%v", m, []string{"full", "ring"}[g], averaging), func(t *testing.T) {
					pol, err := policy.Generate(policy.Input{Times: times, Adj: adj, Alpha: alpha, AveragingBlend: averaging})
					if err != nil {
						t.Fatal(err)
					}
					want := policy.BuildY(pol.P, times, adj, alpha, pol.Rho)
					if averaging {
						want = policy.BuildYAveraging(pol.P, times, adj)
					}
					pg := policy.GlobalStepProbs(policy.AvgIterTimes(pol.P, times, adj))
					nodes := NewNodes(adj, alpha, DefaultBeta, averaging)
					got := make([]float64, m*m)
					d := make([][]float64, m) // d[k] is column k of D_ij
					for i, n := range nodes {
						n.Adopt(pol.P, pol.Rho)
						for j, pij := range pol.P[i] {
							for k := range d {
								d[k] = make([]float64, m)
								d[k][k] = 1
								if j != i {
									pull(n, i, j, d[k])
								}
							}
							for a := range d {
								for b := range d {
									dot := 0.0
									for r := range d[a] {
										dot += d[a][r] * d[b][r]
									}
									got[a*m+b] += pg[i] * pij * dot
								}
							}
						}
					}
					for a := 0; a < m; a++ {
						for b := 0; b < m; b++ {
							if diff := math.Abs(got[a*m+b] - want.At(a, b)); !(diff <= 1e-12) {
								t.Fatalf("Y[%d][%d]: runtime %v, model %v (|diff| %.3g)", a, b, got[a*m+b], want.At(a, b), diff)
							}
						}
					}
				})
			}
		}
	}
}
