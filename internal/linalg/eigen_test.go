package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// set assigns element (i, j) of m.
func set(m *Matrix, i, j int, v float64) { m.Data[i*m.N+j] = v }

func TestEigenvaluesDiagonal(t *testing.T) {
	m := NewMatrix(3)
	set(m, 0, 0, 3)
	set(m, 1, 1, -1)
	set(m, 2, 2, 2)
	eig, err := SymmetricEigenvalues(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1}
	for i := range want {
		if math.Abs(eig[i]-want[i]) > 1e-10 {
			t.Fatalf("eig = %v, want %v", eig, want)
		}
	}
}

func TestEigenvalues2x2Known(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m := NewMatrix(2)
	set(m, 0, 0, 2)
	set(m, 0, 1, 1)
	set(m, 1, 0, 1)
	set(m, 1, 1, 2)
	eig, err := SymmetricEigenvalues(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-3) > 1e-10 || math.Abs(eig[1]-1) > 1e-10 {
		t.Fatalf("eig = %v, want [3 1]", eig)
	}
}

func TestEigenvaluesCompleteGraphGossip(t *testing.T) {
	// W = (1-a)I + (a/n) 11ᵀ for n=4, a=0.4 has eigenvalues 1 and 1-a (x3).
	n, a := 4, 0.4
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := a / float64(n)
			if i == j {
				v += 1 - a
			}
			set(m, i, j, v)
		}
	}
	eig, err := SymmetricEigenvalues(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-1) > 1e-10 {
		t.Fatalf("λ1 = %v, want 1", eig[0])
	}
	for _, l := range eig[1:] {
		if math.Abs(l-(1-a)) > 1e-10 {
			t.Fatalf("λ = %v, want %v", l, 1-a)
		}
	}
}

func TestSecondLargestEigenvalue(t *testing.T) {
	m := NewMatrix(2)
	set(m, 0, 0, 5)
	set(m, 1, 1, 7)
	l2, err := SecondLargestEigenvalue(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l2-5) > 1e-12 {
		t.Fatalf("λ2 = %v, want 5", l2)
	}
}

func TestEigenNonSymmetricRejected(t *testing.T) {
	m := NewMatrix(2)
	set(m, 0, 1, 1)
	if _, err := SymmetricEigenvalues(m); err == nil {
		t.Fatal("expected error for non-symmetric input")
	}
}

func randomSymmetric(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			set(m, i, j, v)
			set(m, j, i, v)
		}
	}
	return m
}

func TestEigenTraceAndFrobeniusInvariants(t *testing.T) {
	// Property: sum(eig) == trace, sum(eig²) == ||A||F² for symmetric A.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		m := randomSymmetric(rng, n)
		eig, err := SymmetricEigenvalues(m)
		if err != nil {
			return false
		}
		trace, frob := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += m.At(i, i)
			for j := 0; j < n; j++ {
				frob += m.At(i, j) * m.At(i, j)
			}
		}
		se, se2 := 0.0, 0.0
		for _, l := range eig {
			se += l
			se2 += l * l
		}
		return math.Abs(se-trace) < 1e-8 && math.Abs(se2-frob) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEigenSortedDescending(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomSymmetric(rng, 5)
		eig, err := SymmetricEigenvalues(m)
		if err != nil {
			return false
		}
		for i := 1; i < len(eig); i++ {
			if eig[i] > eig[i-1]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIsDoublyStochastic(t *testing.T) {
	m := NewMatrix(2)
	set(m, 0, 0, 0.25)
	set(m, 0, 1, 0.75)
	set(m, 1, 0, 0.75)
	set(m, 1, 1, 0.25)
	if !m.IsDoublyStochastic(1e-12) {
		t.Fatal("expected doubly stochastic")
	}
	set(m, 0, 0, 0.3)
	if m.IsDoublyStochastic(1e-12) {
		t.Fatal("row sum broken but accepted")
	}
}

func TestIsDoublyStochasticRejectsNegative(t *testing.T) {
	m := NewMatrix(2)
	set(m, 0, 0, 1.5)
	set(m, 0, 1, -0.5)
	set(m, 1, 0, -0.5)
	set(m, 1, 1, 1.5)
	if m.IsDoublyStochastic(1e-12) {
		t.Fatal("negative entries accepted")
	}
}

func TestMatVec(t *testing.T) {
	m := NewMatrix(2)
	set(m, 0, 0, 1)
	set(m, 0, 1, 2)
	set(m, 1, 0, 3)
	set(m, 1, 1, 4)
	got := m.MatVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MatVec = %v", got)
	}
}

func TestStochasticMatrixTopEigenvalueIsOne(t *testing.T) {
	// Property: a random symmetric doubly stochastic matrix (built by mixing
	// permutation-free Birkhoff-like terms) has λ1 == 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		// Build W = c0*I + c1*(11ᵀ/n) + c2*C where C is a symmetric circulant
		// doubly stochastic matrix; coefficients sum to 1.
		c0 := rng.Float64()
		c1 := rng.Float64() * (1 - c0)
		c2 := 1 - c0 - c1
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := c1 / float64(n)
				if i == j {
					v += c0
				}
				if (i+1)%n == j || (j+1)%n == i {
					v += c2 / 2
				}
				if n == 2 && (i+1)%n == j && (j+1)%n == i {
					// both conditions coincide for n=2; handled implicitly
					_ = v
				}
				set(m, i, j, v)
			}
		}
		if !m.IsSymmetric(1e-9) || !m.IsDoublyStochastic(1e-9) {
			return true // construction degenerate; skip
		}
		eig, err := SymmetricEigenvalues(m)
		if err != nil {
			return false
		}
		return math.Abs(eig[0]-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// randomOrthogonal returns a Haar-like random orthogonal matrix: the Q of a
// modified Gram-Schmidt pass over a Gaussian matrix, re-orthogonalized once.
func randomOrthogonal(rng *rand.Rand, n int) [][]float64 {
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
		for j := range q[i] {
			q[i][j] = rng.NormFloat64()
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := range q {
			for k := 0; k < i; k++ {
				dot := 0.0
				for j := range q[i] {
					dot += q[i][j] * q[k][j]
				}
				for j := range q[i] {
					q[i][j] -= dot * q[k][j]
				}
			}
			norm := 0.0
			for _, v := range q[i] {
				norm += v * v
			}
			norm = math.Sqrt(norm)
			for j := range q[i] {
				q[i][j] /= norm
			}
		}
	}
	return q
}

// similar returns Qᵀ·diag(d)·Q (rows of q orthonormal), built from its
// upper triangle so that the result is exactly symmetric.
func similar(q [][]float64, d []float64) *Matrix {
	n := len(d)
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := 0.0
			for k := 0; k < n; k++ {
				v += q[k][i] * d[k] * q[k][j]
			}
			set(m, i, j, v)
			set(m, j, i, v)
		}
	}
	return m
}

// checkSpectrum requires the computed eigenvalues of m to match want
// (descending) to 1e-12 relative to the spectral radius.
func checkSpectrum(t *testing.T, name string, m *Matrix, want []float64) {
	t.Helper()
	got, err := SymmetricEigenvalues(m)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	scale := 0.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*scale {
			t.Fatalf("%s: eigenvalues %v, want %v", name, got, want)
		}
	}
}

func TestEigenKnownSpectra(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spectra := map[string][]float64{
		"n=1":      {4.5},
		"n=2":      {3, -1},
		"zero":     {0, 0, 0, 0, 0},
		"repeated": {2, 2, 2, 0.5, 0.5, -1, -1, -1},
		"all-same": {0.7, 0.7, 0.7, 0.7, 0.7, 0.7},
		"spread":   {1e3, 1, 1e-3, 0, -1e-3, -1, -1e3},
	}
	for n := 8; n <= 64; n *= 2 {
		d := make([]float64, n)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		spectra[fmt.Sprintf("random n=%d", n)] = d
	}
	for name, d := range spectra {
		d = slices.Clone(d)
		slices.Sort(d)
		slices.Reverse(d)
		q := randomOrthogonal(rng, len(d))
		for _, s := range []float64{1e-12, 1e-6, 1, 1e6, 1e12} {
			ds := make([]float64, len(d))
			for i := range d {
				ds[i] = d[i] * s
			}
			checkSpectrum(t, fmt.Sprintf("%s scaled %g", name, s), similar(q, ds), ds)
		}
	}
}

func TestEigenTridiagonalInput(t *testing.T) {
	// The second-difference matrix tridiag(-1, 2, -1) of order n has
	// eigenvalues 2 − 2cos(kπ/(n+1)), k = 1..n.
	n := 12
	m := NewMatrix(n)
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		set(m, i, i, 2)
		if i > 0 {
			set(m, i, i-1, -1)
			set(m, i-1, i, -1)
		}
		want[i] = 2 - 2*math.Cos(float64(n-i)*math.Pi/float64(n+1))
	}
	checkSpectrum(t, "second difference", m, want)
}

func TestEigenNonFiniteIsAnError(t *testing.T) {
	m := NewMatrix(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			set(m, i, j, math.NaN())
		}
	}
	if _, err := SymmetricEigenvalues(m); err == nil {
		t.Fatal("NaN matrix accepted")
	}
	m = NewMatrix(3)
	set(m, 0, 1, math.Inf(1))
	set(m, 1, 0, math.Inf(1))
	if _, err := SymmetricEigenvalues(m); err == nil {
		t.Fatal("infinite matrix accepted")
	}
}

func TestSymmetricEigenvaluesIntoBufferLengths(t *testing.T) {
	m := NewMatrix(3)
	if err := SymmetricEigenvaluesInto(m, make([]float64, 2), make([]float64, 3)); err == nil {
		t.Fatal("short eigenvalue buffer accepted")
	}
}
