package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	a := New(2, 3)
	if a.Len() != 6 {
		t.Fatalf("Len = %d, want 6", a.Len())
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

func TestAtSet(t *testing.T) {
	a := New(2, 3)
	a.Set(1, 2, 7.5)
	if got := a.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if a.Data[5] != 7.5 {
		t.Fatalf("row-major layout wrong: %v", a.Data)
	}
}

func TestAddSubMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	if got := Add(a, b).Data; got[0] != 6 || got[3] != 12 {
		t.Errorf("Add wrong: %v", got)
	}
	if got := Sub(b, a).Data; got[0] != 4 || got[3] != 4 {
		t.Errorf("Sub wrong: %v", got)
	}
	if got := Mul(a, b).Data; got[0] != 5 || got[3] != 32 {
		t.Errorf("Mul wrong: %v", got)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(New(2, 2), New(2, 3))
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
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
		id.Set(i, i, 1)
	}
	if !AllClose(MatMul(a, id), a, 1e-12) {
		t.Fatal("A @ I != A")
	}
	if !AllClose(MatMul(id, a), a, 1e-12) {
		t.Fatal("I @ A != A")
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if at.Shape[0] != 3 || at.Shape[1] != 2 {
		t.Fatalf("shape = %v", at.Shape)
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
		return Equal(Transpose(Transpose(a)), a)
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
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		return AllClose(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScaleAndAXPY(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{10, 20}, 2)
	c := Scale(a, 3)
	if c.Data[1] != 6 {
		t.Errorf("Scale wrong: %v", c.Data)
	}
	a.AXPY(0.5, b)
	if a.Data[0] != 6 || a.Data[1] != 12 {
		t.Errorf("AXPY wrong: %v", a.Data)
	}
}

func TestSumMeanDotNorm(t *testing.T) {
	a := FromSlice([]float64{3, 4}, 2)
	if a.Sum() != 7 {
		t.Errorf("Sum = %v", a.Sum())
	}
	if a.Mean() != 3.5 {
		t.Errorf("Mean = %v", a.Mean())
	}
	if Dot(a, a) != 25 {
		t.Errorf("Dot = %v", Dot(a, a))
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestApply(t *testing.T) {
	a := FromSlice([]float64{-1, 4}, 2)
	b := Apply(a, math.Abs)
	if b.Data[0] != 1 || b.Data[1] != 4 {
		t.Errorf("Apply wrong: %v", b.Data)
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

func TestAddRowVectorAndSumRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float64{10, 20}, 2)
	b := AddRowVector(a, v)
	if b.At(0, 0) != 11 || b.At(1, 1) != 24 {
		t.Errorf("AddRowVector wrong: %v", b.Data)
	}
	s := SumRows(a)
	if s.Data[0] != 4 || s.Data[1] != 6 {
		t.Errorf("SumRows wrong: %v", s.Data)
	}
}

func TestRandnDeterministic(t *testing.T) {
	a := Randn(rand.New(rand.NewSource(42)), 1, 3, 3)
	b := Randn(rand.New(rand.NewSource(42)), 1, 3, 3)
	if !Equal(a, b) {
		t.Fatal("Randn not deterministic for equal seeds")
	}
}

func TestFullAndZero(t *testing.T) {
	a := Full(2.5, 3)
	if a.Data[2] != 2.5 {
		t.Errorf("Full wrong: %v", a.Data)
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Errorf("Zero wrong: %v", a.Data)
	}
}

func TestMatMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		c := Randn(rng, 1, k, n)
		lhs := MatMul(a, Add(b, c))
		rhs := Add(MatMul(a, b), MatMul(a, c))
		return AllClose(lhs, rhs, 1e-9)
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
	if got := MatMul(a, b).Data[0]; !math.IsNaN(got) {
		t.Fatalf("[0 1]·[+Inf 2]ᵀ = %v, want NaN", got)
	}
}
