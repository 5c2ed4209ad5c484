package policy

import (
	"math"
	"testing"

	"netmax/internal/simnet"
)

func TestLambda2LowerBound(t *testing.T) {
	if _, err := Lambda2LowerBound(3); err == nil {
		t.Fatal("m=3 should be rejected")
	}
	v, err := Lambda2LowerBound(5)
	if err != nil || math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("bound = %v, %v; want 0.5", v, err)
	}
}

func TestLambda2UpperBound(t *testing.T) {
	v, err := Lambda2UpperBound(0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || v >= 1 {
		t.Fatalf("upper bound = %v, want in (0,1)", v)
	}
	if _, err := Lambda2UpperBound(0, 5); err == nil {
		t.Fatal("a=0 should be rejected")
	}
}

func TestApproximationRatioAtLeastOne(t *testing.T) {
	r, err := ApproximationRatio(1, 2, 6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r < 1 {
		t.Fatalf("approximation ratio %v < 1", r)
	}
}

func TestApproximationRatioRejectsBadInput(t *testing.T) {
	if _, err := ApproximationRatio(1, 2, 3, 0.05); err == nil {
		t.Fatal("m<=3 accepted")
	}
	if _, err := ApproximationRatio(2, 1, 6, 0.05); err == nil {
		t.Fatal("hi<lo accepted")
	}
	if _, err := ApproximationRatio(0, 1, 6, 0.05); err == nil {
		t.Fatal("lo=0 accepted")
	}
}

func TestGeneratedPolicySpectrumWithinAppendixBBounds(t *testing.T) {
	// Eq. 34: λ₂ of any feasible policy on a fully connected graph with
	// m>3 workers is at least (m-3)/(m-1); Eq. 35 gives the a-dependent
	// upper bound. Both must hold for Algorithm 3's output.
	for _, seed := range []int64{1, 5, 9} {
		m := 6
		times := hetTimes(m, seed)
		adj := simnet.FullyConnected(m)
		pol, err := Generate(Input{Times: times, Adj: adj, Alpha: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		low, err := Lambda2LowerBound(m)
		if err != nil {
			t.Fatal(err)
		}
		if pol.Lambda2 < low-1e-9 {
			t.Fatalf("seed %d: λ2 = %v below Eq. 34 bound %v", seed, pol.Lambda2, low)
		}
		a := MinPositiveEntry(pol, times, adj, 0.1)
		if a <= 0 {
			t.Fatalf("seed %d: no positive entry in Y_P", seed)
		}
		up, err := Lambda2UpperBound(a, m)
		if err != nil {
			t.Fatal(err)
		}
		if pol.Lambda2 > up+1e-9 {
			t.Fatalf("seed %d: λ2 = %v above Eq. 35 bound %v (a=%v)", seed, pol.Lambda2, up, a)
		}
	}
}

func TestCertifyApproximation(t *testing.T) {
	m := 6
	times := hetTimes(m, 11)
	adj := simnet.FullyConnected(m)
	pol, err := Generate(Input{Times: times, Adj: adj, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	obj, lower, ratio, err := CertifyApproximation(pol, times, adj, 0.1)
	if err != nil {
		t.Fatalf("certification failed: %v (obj=%v lower=%v ratio=%v)", err, obj, lower, ratio)
	}
	if obj <= 0 || lower <= 0 || ratio < 1 {
		t.Fatalf("degenerate certificate: obj=%v lower=%v ratio=%v", obj, lower, ratio)
	}
	if math.Float64bits(obj) != math.Float64bits(pol.TConvergence) {
		t.Errorf("objective %v is not the policy's TConvergence %v", obj, pol.TConvergence)
	}
	// The certificate on this input, bit for bit, as computed with ε = 1e-2
	// passed in and ln ε taken in each formula: reading ln ε from
	// logEpsilon must not move it.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"objective", obj, math.Float64frombits(0x404fe7b19a281a56)},
		{"lower bound", lower, math.Float64frombits(0x40163c8c8b1d8cd7)},
		{"ratio", ratio, math.Float64frombits(0x4293b487e6bb7b4e)},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s = %v (%#x), want %v", c.name, c.got, math.Float64bits(c.got), c.want)
		}
	}
}
