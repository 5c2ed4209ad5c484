// Package linalg provides the small dense linear-algebra routines the policy
// generator needs: a symmetric eigenvalue solver (Householder
// tridiagonalization and implicit QL) and spectral / stochastic-matrix
// helpers used both by Algorithm 3 and by the tests that verify the
// paper's Theorem 3 invariants.
package linalg

import (
	"fmt"
	"math"
	"slices"
)

// Matrix is a dense row-major square matrix.
type Matrix struct {
	N    int
	Data []float64
}

// NewMatrix returns a zero n x n matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	copy(c.Data, m.Data)
	return c
}

// IsSymmetric reports whether |m - mᵀ| <= tol elementwise.
func (m *Matrix) IsSymmetric(tol float64) bool {
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// IsNonNegative reports whether every entry is >= -tol.
func (m *Matrix) IsNonNegative(tol float64) bool {
	for _, v := range m.Data {
		if v < -tol {
			return false
		}
	}
	return true
}

// IsDoublyStochastic reports whether all rows and columns sum to 1 within tol
// and all entries are non-negative (Lemma 1 + Lemma 2 of the paper).
func (m *Matrix) IsDoublyStochastic(tol float64) bool {
	if !m.IsNonNegative(tol) {
		return false
	}
	for i := 0; i < m.N; i++ {
		rs, cs := 0.0, 0.0
		for j := 0; j < m.N; j++ {
			rs += m.At(i, j)
			cs += m.At(j, i)
		}
		if math.Abs(rs-1) > tol || math.Abs(cs-1) > tol {
			return false
		}
	}
	return true
}

// SymmetricEigenvalues computes all eigenvalues of a symmetric matrix,
// sorted in descending order. The input is not modified.
func SymmetricEigenvalues(m *Matrix) ([]float64, error) {
	d := make([]float64, m.N)
	if err := SymmetricEigenvaluesInto(m.Clone(), d, make([]float64, m.N)); err != nil {
		return nil, err
	}
	return d, nil
}

// SymmetricEigenvaluesInto is SymmetricEigenvalues without allocation: it
// writes the eigenvalues of a, sorted in descending order, into d, using e
// as work space (both of length a.N), and overwrites a. The matrix is
// reduced to tridiagonal form by Householder reflections and the
// tridiagonal eigenvalues are found by implicit QL with Wilkinson shifts;
// no eigenvectors are formed.
func SymmetricEigenvaluesInto(a *Matrix, d, e []float64) error {
	if len(d) != a.N || len(e) != a.N {
		return fmt.Errorf("linalg: eigenvalue buffers of length %d and %d for a %dx%d matrix", len(d), len(e), a.N, a.N)
	}
	if !a.IsSymmetric(1e-9) {
		return fmt.Errorf("linalg: matrix is not symmetric")
	}
	tridiagonalize(a, d, e)
	if err := tridiagonalQL(d, e); err != nil {
		return err
	}
	slices.Sort(d)
	slices.Reverse(d)
	return nil
}

// tridiagonalize reduces the symmetric matrix a to a tridiagonal matrix
// with the same eigenvalues by n−2 Householder reflections (tred2 without
// accumulating the transformations). It leaves the diagonal in d and the
// subdiagonal in e[1:], with e[0] = 0. Only the lower triangle of a is
// read, and a is overwritten.
func tridiagonalize(a *Matrix, d, e []float64) {
	n := a.N
	for i := n - 1; i > 0; i-- {
		l := i - 1
		ai := a.Data[i*n : i*n+i] // row i left of the diagonal
		scale := 0.0
		if l > 0 {
			for _, v := range ai {
				scale += math.Abs(v)
			}
		}
		if scale == 0 {
			e[i] = ai[l]
			continue
		}
		h := 0.0
		for k := range ai {
			ai[k] /= scale
			h += float64(ai[k] * ai[k])
		}
		f := ai[l]
		g := math.Sqrt(h)
		if f >= 0 {
			g = -g
		}
		e[i] = scale * g
		h -= float64(f * g)
		ai[l] = f - g
		// e[:i] = A·u/h for the reflector u = ai, then f = uᵀ·e[:i].
		f = 0
		for j := 0; j <= l; j++ {
			g := 0.0
			for k, v := range a.Data[j*n : j*n+j+1] {
				g += float64(v * ai[k])
			}
			for k := j + 1; k <= l; k++ {
				g += float64(a.Data[k*n+j] * ai[k])
			}
			e[j] = g / h
			f += float64(e[j] * ai[j])
		}
		// A ← A − u·qᵀ − q·uᵀ with q = e[:i] − (f/2h)·u, lower triangle.
		hh := f / (h + h)
		for j := 0; j <= l; j++ {
			f := ai[j]
			g := e[j] - float64(hh*f)
			e[j] = g
			aj := a.Data[j*n : j*n+j+1]
			for k := range aj {
				aj[k] -= float64(f*e[k]) + float64(g*ai[k])
			}
		}
	}
	if n > 0 {
		e[0] = 0
	}
	for i := range d {
		d[i] = a.Data[i*n+i]
	}
}

// maxQLIterations bounds the QL sweeps spent on any one eigenvalue.
const maxQLIterations = 30

// tridiagonalQL finds the eigenvalues of the symmetric tridiagonal matrix
// with diagonal d and subdiagonal e[1:] by the implicit QL method (tqli
// without eigenvectors), overwriting d with them in no particular order and
// destroying e. A matrix whose off-diagonal does not vanish within
// maxQLIterations sweeps per eigenvalue — in practice only one with NaN or
// infinite entries — is reported as an error.
func tridiagonalQL(d, e []float64) error {
	n := len(d)
	if n == 0 {
		return nil
	}
	copy(e, e[1:])
	e[n-1] = 0
	const eps = 0x1p-52
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find the first negligible subdiagonal entry at or below l.
			m := l
			for ; m < n-1; m++ {
				if math.Abs(e[m]) <= eps*(math.Abs(d[m])+math.Abs(d[m+1])) {
					break
				}
			}
			if m == l {
				break
			}
			if iter == maxQLIterations {
				return fmt.Errorf("linalg: QL iteration did not converge for eigenvalue %d", l)
			}
			// Wilkinson shift from the leading 2x2 block.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := hypot(g, 1)
			if g < 0 {
				r = -r
			}
			g = d[m] - d[l] + e[l]/(g+r)
			s, c, p := 1.0, 1.0, 0.0
			i := m - 1
			for ; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Underflow: deflate and restart from l.
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = float64((d[i]-g)*s) + float64(2*c*b)
				p = float64(s * r)
				d[i+1] = g + p
				g = float64(c*r) - float64(b)
			}
			if r == 0 && i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// SecondLargestEigenvalue returns λ₂ of a symmetric matrix.
func SecondLargestEigenvalue(m *Matrix) (float64, error) {
	eig, err := SymmetricEigenvalues(m)
	if err != nil {
		return 0, err
	}
	if len(eig) < 2 {
		return 0, fmt.Errorf("linalg: need at least a 2x2 matrix, got %d", m.N)
	}
	return eig[1], nil
}

// MatVec returns m @ v.
func (m *Matrix) MatVec(v []float64) []float64 {
	if len(v) != m.N {
		panic(fmt.Sprintf("linalg: MatVec length %d vs %d", len(v), m.N))
	}
	out := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		s := 0.0
		row := m.Data[i*m.N : (i+1)*m.N]
		for j, x := range v {
			s += float64(row[j] * x)
		}
		out[i] = s
	}
	return out
}
