package core

import (
	"math/rand"
	"testing"

	"netmax/internal/simnet"
)

// TestNodeAdoptFallsBackWithoutWritingPolicy hands a node a policy whose
// own row is pinned to self, as GenerateLive does for a worker presumed
// dead. The node must select and blend from the uniform row, and leave the
// matrix it was handed — shared between live workers — as it was.
func TestNodeAdoptFallsBackWithoutWritingPolicy(t *testing.T) {
	nodes := NewNodes(simnet.FullyConnected(3), 0.1, Options{})
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

// TestNodeMaskStaysNilUntilMasked pins the failure-free sampling path: a
// node allocates its mask only when a peer is first masked, and unmasking
// an unmasked peer allocates nothing.
func TestNodeMaskStaysNilUntilMasked(t *testing.T) {
	n := NewNodes(simnet.FullyConnected(4), 0.1, Options{})[0]
	n.SetMasked(2, false)
	if n.mask != nil {
		t.Fatal("unmasking allocated a mask")
	}
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
