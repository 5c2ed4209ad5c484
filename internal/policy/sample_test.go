package policy

import (
	"math/rand"
	"testing"

	"netmax/internal/simnet"
)

// TestSampleNeverReturnsZeroProbabilityIndex is the property test for the
// FP fall-through bugfix: over rows whose cumulative sum is perturbed just
// below 1, the sampler must never return self when self carries no mass,
// and never any other zero-probability index.
func TestSampleNeverReturnsZeroProbabilityIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		m := 2 + rng.Intn(6)
		self := rng.Intn(m)
		row := make([]float64, m)
		// Random positive mass on a random subset of non-self entries.
		mass := 0.0
		for j := range row {
			if j != self && rng.Float64() < 0.7 {
				row[j] = rng.Float64() + 1e-3
				mass += row[j]
			}
		}
		if mass == 0 {
			j := (self + 1) % m
			row[j] = 1
			mass = 1
		}
		for j := range row {
			row[j] /= mass
		}
		// Perturb the row so the cumulative sum falls short of 1 — the FP
		// regime where the old sampler leaked the residual mass to self.
		// The perturbation is scaled up from ulp size so the fall-through
		// branch is actually hit by random draws.
		for j := range row {
			row[j] -= 1e-3 * row[j]
		}
		for draw := 0; draw < 50; draw++ {
			j := Sample(row, self, nil, rng)
			if row[j] <= 0 {
				t.Fatalf("trial %d: sampled zero-probability index %d (self=%d, row=%v)", trial, j, self, row)
			}
			if j == self {
				t.Fatalf("trial %d: sampled self with p[self]=0 (row=%v)", trial, row)
			}
		}
	}
	// Grossly under-normalized row: every draw in [0.5, 1) falls through,
	// and must land on the last positive entry, never on zero-mass self.
	short := []float64{0.25, 0, 0.25, 0}
	for i := 0; i < 400; i++ {
		if j := Sample(short, 3, nil, rng); j != 0 && j != 2 {
			t.Fatalf("under-normalized row sampled %d, want 0 or 2", j)
		}
	}
}

func TestSampleSelfMassIsLegitimate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	row := []float64{0.5, 0.5} // self=1 carries real mass
	sawSelf := false
	for i := 0; i < 200; i++ {
		if Sample(row, 1, nil, rng) == 1 {
			sawSelf = true
		}
	}
	if !sawSelf {
		t.Fatal("self with positive probability was never sampled")
	}
	// Empty row: self is the only sane answer.
	if j := Sample([]float64{0, 0, 0}, 2, nil, rng); j != 2 {
		t.Fatalf("empty row sampled %d, want self", j)
	}
}

func TestSampleSkipsMaskedPeers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	row := []float64{0, 0.5, 0.3, 0.2}
	masked := []bool{false, true, false, false}
	for i := 0; i < 500; i++ {
		j := Sample(row, 0, masked, rng)
		if j == 1 {
			t.Fatal("sampled a masked peer")
		}
		if j == 0 {
			t.Fatal("sampled zero-probability self")
		}
	}
	// All peers masked: self is the only fallback.
	all := []bool{false, true, true, true}
	if j := Sample(row, 0, all, rng); j != 0 {
		t.Fatalf("fully masked row sampled %d, want self", j)
	}
	// A nil and an all-false mask draw alike, draw for draw.
	a := rand.New(rand.NewSource(11))
	b := rand.New(rand.NewSource(11))
	none := make([]bool, len(row))
	for i := 0; i < 200; i++ {
		if x, y := Sample(row, 0, nil, a), Sample(row, 0, none, b); x != y {
			t.Fatalf("nil and all-false masks diverged: %d vs %d", x, y)
		}
	}
}

// twoScanSample is Sample as it was written before its two
// cases shared one scan: an unmasked scan for a nil or all-false mask, and
// a separate renormalizing scan otherwise. It is the bitwise oracle for the
// single scan.
func twoScanSample(row []float64, self int, masked []bool, rng *rand.Rand) int {
	r := rng.Float64()
	if masked != nil {
		any := false
		for _, m := range masked {
			if m {
				any = true
				break
			}
		}
		if !any {
			masked = nil
		}
	}
	if masked == nil {
		acc := 0.0
		fallback := self
		for j, pj := range row {
			acc += pj
			if r < acc {
				return j
			}
			if pj > 0 {
				fallback = j
			}
		}
		return fallback
	}
	live := func(j int) bool { return j == self || !masked[j] }
	total := 0.0
	for j, pj := range row {
		if live(j) {
			total += pj
		}
	}
	if total <= 0 {
		return self
	}
	r *= total
	acc := 0.0
	fallback := self
	for j, pj := range row {
		if !live(j) {
			continue
		}
		acc += pj
		if r < acc {
			return j
		}
		if pj > 0 {
			fallback = j
		}
	}
	return fallback
}

// TestSampleMatchesTwoScans draws from random rows (normalized,
// under-normalized, with and without self mass and zero entries) under
// nil, all-false, partial, self-only and full masks, and requires the
// single scan to pick the two-scan oracle's index on every draw of the
// same RNG stream.
func TestSampleMatchesTwoScans(t *testing.T) {
	gen := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3000; trial++ {
		m := 1 + gen.Intn(9)
		self := gen.Intn(m)
		row := make([]float64, m)
		sum := 0.0
		for j := range row {
			if gen.Float64() < 0.7 {
				row[j] = gen.Float64()
				sum += row[j]
			}
		}
		scale := 1.0
		if trial%3 == 0 {
			scale = 1 - 1e-3*gen.Float64() // cumulative sum falls short of 1
		}
		for j := range row {
			if sum > 0 {
				row[j] = row[j] / sum * scale
			}
		}
		var masked []bool
		switch trial % 5 {
		case 1:
			masked = make([]bool, m) // all false
		case 2:
			masked = make([]bool, m)
			for j := range masked {
				masked[j] = gen.Float64() < 0.4
			}
		case 3:
			masked = make([]bool, m)
			masked[self] = true
		case 4:
			masked = make([]bool, m)
			for j := range masked {
				masked[j] = true
			}
		}
		seed := gen.Int63()
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for draw := 0; draw < 40; draw++ {
			if got, want := Sample(row, self, masked, a), twoScanSample(row, self, masked, b); got != want {
				t.Fatalf("trial %d draw %d: Sample = %d, two-scan oracle = %d (row %v, self %d, mask %v)",
					trial, draw, got, want, row, self, masked)
			}
		}
	}
}

func TestGenerateLiveRestrictsToLiveSubgraph(t *testing.T) {
	m := 4
	adj := simnet.FullyConnected(m)
	times := make([][]float64, m)
	for i := range times {
		times[i] = make([]float64, m)
		for j := range times[i] {
			if i != j {
				times[i][j] = 1
			}
		}
	}
	in := Input{Times: times, Adj: adj, Alpha: 0.1, Alive: []bool{true, true, false, true}}
	pol, err := Generate(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.P) != m {
		t.Fatalf("embedded policy has %d rows, want %d", len(pol.P), m)
	}
	// Dead row pinned to self; dead column zero.
	if pol.P[2][2] != 1 {
		t.Fatalf("dead row not pinned to self: %v", pol.P[2])
	}
	for i := 0; i < m; i++ {
		if i != 2 && pol.P[i][2] != 0 {
			t.Fatalf("live worker %d routes to dead worker: %v", i, pol.P[i])
		}
	}
	// Live rows are proper distributions over live neighbors.
	for _, i := range []int{0, 1, 3} {
		sum := 0.0
		for j, v := range pol.P[i] {
			if v < 0 {
				t.Fatalf("negative probability p[%d][%d]", i, j)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("live row %d sums to %v", i, sum)
		}
	}
	// All-true liveness behaves like plain Generate.
	in.Alive = []bool{true, true, true, true}
	full, err := Generate(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.P) != m || full.P[2][2] == 1 {
		t.Fatal("all-alive Generate restricted the graph")
	}
	// One survivor: no policy.
	in.Alive = []bool{false, false, true, false}
	if _, err := Generate(in); err == nil {
		t.Fatal("single live worker must not admit a policy")
	}
}
