package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// matMul returns a@b in a new tensor.
func matMul(a, b *Tensor) *Tensor { return matMulInto(New(a.Rows, b.Cols), a, b) }

// transpose returns the transpose of a in a new tensor.
func transpose(a *Tensor) *Tensor { return TransposeInto(New(a.Cols, a.Rows), a) }

// add returns a + b elementwise in a new tensor.
func add(a, b *Tensor) *Tensor {
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// allClose reports whether a and b have the same length and differ by at
// most tol elementwise.
func allClose(a, b *Tensor, tol float64) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestNewZeroFilled(t *testing.T) {
	a := New(2, 3)
	if a.Rows != 2 || a.Cols != 3 || len(a.Data) != 6 {
		t.Fatalf("New(2, 3) is %dx%d with %d elements", a.Rows, a.Cols, len(a.Data))
	}
	for i, v := range a.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromSliceShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

// TestNewAllocatesOnce checks that a tensor that does not outlive its
// caller costs one allocation, its data: the dimensions are fields.
func TestNewAllocatesOnce(t *testing.T) {
	rows, cols, sum := 3, 4, 0.0
	if got := testing.AllocsPerRun(100, func() { sum += New(rows, cols).Data[11] }); got != 1 {
		t.Fatalf("New allocates %v times, want 1", got)
	}
}

func TestFromSliceNegativeDimensionPanics(t *testing.T) {
	for _, dims := range [][2]int{{-1, -2}, {-2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromSlice(%d×%d) did not panic", dims[0], dims[1])
				}
			}()
			FromSlice([]float64{1, 2}, dims[0], dims[1])
		}()
	}
}

// TestRowView checks that a row view has to−from rows of the source's
// width, holds those rows, and shares the source's storage both ways.
func TestRowView(t *testing.T) {
	a := FromSlice([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 4, 3)
	v := a.RowView(1, 3)
	if v.Rows != 2 || v.Cols != 3 || len(v.Data) != 6 {
		t.Fatalf("RowView(1, 3) of 4x3 is %dx%d with %d elements", v.Rows, v.Cols, len(v.Data))
	}
	if v.At(0, 0) != 3 || v.At(1, 2) != 8 {
		t.Fatalf("RowView(1, 3) holds %v, want rows 1 and 2", v.Data)
	}
	v.Data[4] = -1
	if a.At(2, 1) != -1 {
		t.Fatal("a write through the view does not show in the source")
	}
	a.Data[3] = -2
	if v.At(0, 0) != -2 {
		t.Fatal("a write to the source does not show in the view")
	}
	if e := a.RowView(4, 4); e.Rows != 0 || len(e.Data) != 0 {
		t.Fatalf("RowView(4, 4) is %dx%d with %d elements", e.Rows, e.Cols, len(e.Data))
	}
}

// TestAtSet checks At's row-major layout on an element written through
// Data, as the tests that build inputs entry by entry write them.
func TestAtSet(t *testing.T) {
	a := New(2, 3)
	a.Data[1*3+2] = 7.5
	if got := a.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5 (data %v)", got, a.Data)
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := matMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", got.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Data[i*4+i] = 1
	}
	if !sameBits(matMul(a, id), a) {
		t.Fatal("A @ I != A")
	}
	if !sameBits(matMul(id, a), a) {
		t.Fatal("I @ A != A")
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := transpose(a)
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("transpose is %dx%d, want 3x2", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %v", at.Data)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, 1, m, n)
		return sameBits(transpose(transpose(a)), a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatMulTransposeProperty(t *testing.T) {
	// (AB)^T == B^T A^T
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		lhs := transpose(matMul(a, b))
		rhs := matMul(transpose(b), transpose(a))
		return allClose(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArgMaxRow(t *testing.T) {
	a := FromSlice([]float64{1, 9, 3, 8, 2, 0}, 2, 3)
	if a.ArgMaxRow(0) != 1 {
		t.Errorf("ArgMaxRow(0) = %d", a.ArgMaxRow(0))
	}
	if a.ArgMaxRow(1) != 0 {
		t.Errorf("ArgMaxRow(1) = %d", a.ArgMaxRow(1))
	}
}

// TestAddRowVectorAndSumRows checks the bias row add, which AffineInto
// runs after the product (x is the identity, so the result is W + b), and
// SumRowsInto.
func TestAddRowVectorAndSumRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	wb := FromSlice([]float64{1, 2, 3, 4, 10, 20}, 3, 2)
	b := AffineInto(New(2, 2), FromSlice([]float64{1, 0, 0, 1}, 2, 2), wb, false)
	if b.At(0, 0) != 11 || b.At(1, 1) != 24 {
		t.Errorf("AffineInto's bias row add wrong: %v", b.Data)
	}
	// The destination's stale contents are overwritten, not added to.
	s := []float64{3, 3}
	if SumRowsInto(s, a); s[0] != 4 || s[1] != 6 {
		t.Errorf("SumRowsInto wrong: %v", s)
	}
}

// TestRowOpsMatchPlainLoops checks AffineInto, without and with ReLU, and
// SumRowsInto, into a stale destination, bitwise against plain loops
// whose sums start at +0 and run in order: over p for the product, then
// the bias, and down the rows for the column sums.
func TestRowOpsMatchPlainLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Randn(rng, 1, 4, 6)
	x, wb := Randn(rng, 1, 4, 3), Randn(rng, 1, 4, 6)
	want, relu, sums := New(4, 6), New(4, 6), New(1, 6)
	for j := 0; j < 6; j++ {
		s := 0.0
		for i := 0; i < 4; i++ {
			z := 0.0
			for p := 0; p < 3; p++ {
				z += float64(x.Data[i*3+p] * wb.Data[p*6+j])
			}
			z += wb.Data[3*6+j]
			want.Data[i*6+j] = z
			if z > 0 {
				relu.Data[i*6+j] = z
			}
			s += a.Data[i*6+j]
		}
		sums.Data[j] = s
	}
	for _, kern := range kernels() {
		withKernel(kern, func() {
			if got := AffineInto(New(4, 6), x, wb, false); !sameBits(got, want) {
				t.Fatalf("AffineInto on %v = %v, want %v", kern, got.Data, want.Data)
			}
			if got := AffineInto(New(4, 6), x, wb, true); !sameBits(got, relu) {
				t.Fatalf("AffineInto with ReLU on %v = %v, want %v", kern, got.Data, relu.Data)
			}
			got := FromSlice([]float64{3, 3, 3, 3, 3, 3}, 1, 6)
			if SumRowsInto(got.Data, a); !sameBits(got, sums) {
				t.Fatalf("SumRowsInto on %v = %v, want %v", kern, got.Data, sums.Data)
			}
		})
	}
}

func TestRandnDeterministic(t *testing.T) {
	a := Randn(rand.New(rand.NewSource(42)), 1, 3, 3)
	b := Randn(rand.New(rand.NewSource(42)), 1, 3, 3)
	if !sameBits(a, b) {
		t.Fatal("Randn not deterministic for equal seeds")
	}
}

func TestMatMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		c := Randn(rng, 1, k, n)
		lhs := matMul(a, add(b, c))
		rhs := add(matMul(a, b), matMul(a, c))
		return allClose(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMatMulZeroTimesInfIsNaN pins the kernel's one departure from the old
// zero-skipping loop: a zero in a times an infinity in b is an IEEE NaN
// term, not a skipped one.
func TestMatMulZeroTimesInfIsNaN(t *testing.T) {
	a := FromSlice([]float64{0, 1}, 1, 2)
	b := FromSlice([]float64{math.Inf(1), 2}, 2, 1)
	if got := matMul(a, b).Data[0]; !math.IsNaN(got) {
		t.Fatalf("[0 1]·[+Inf 2]ᵀ = %v, want NaN", got)
	}
}
