package tensor

import (
	"math/rand"
	"testing"
)

// serialMatMul is the reference kernel: the axpy triple loop the package
// ran before the dot-product kernel, which skips every term whose a entry
// is zero. For finite b the two agree bitwise (see FuzzMatMul).
func serialMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// TestParallelMatMulBitwiseIdenticalToSerial runs all three product forms
// against the zero-skipping reference. The larger shapes are not multiples
// of the kernel's 4-row or 2-column tile, so every remainder loop runs.
func TestParallelMatMulBitwiseIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 7, 5}, {16, 24, 40}, {97, 103, 89}, {256, 64, 128}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		want := serialMatMul(a, b)
		at, bt := Transpose(a), Transpose(b)
		if got := MatMul(a, b); !Equal(got, want) {
			t.Fatalf("MatMul %vx%v differs from serial", a.Shape, b.Shape)
		}
		if got := MatMulTransBInto(New(m, n), a, bt); !Equal(got, want) {
			t.Fatalf("MatMulTransBInto %vx%v differs from serial", a.Shape, b.Shape)
		}
		if got := MatMulTransAInto(New(m, n), at, b); !Equal(got, want) {
			t.Fatalf("MatMulTransAInto %vx%v differs from serial", a.Shape, b.Shape)
		}
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Randn(rng, 1, 33, 17)
	b := Randn(rng, 1, 17, 29)
	want := MatMul(a, b)
	dst := Full(99, 33, 29) // stale contents must be overwritten
	got := MatMulInto(dst, a, b)
	if got != dst {
		t.Fatal("MatMulInto did not return dst")
	}
	if !Equal(got, want) {
		t.Fatal("MatMulInto differs from MatMul")
	}
}

// TransposeInto is the transpose oracle: it writes the transpose of
// rank-2 a into dst element by element, walking dst in row order, where
// the package's transposeInto walks a.
func TransposeInto(dst, a *Tensor) *Tensor {
	for j := 0; j < a.Shape[1]; j++ {
		for i := 0; i < a.Shape[0]; i++ {
			dst.Data[j*a.Shape[0]+i] = a.At(i, j)
		}
	}
	return dst
}

func TestTransposeIntoMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, shape := range [][2]int{{5, 9}, {1, 7}, {7, 1}, {16, 40}} {
		a := Randn(rng, 1, shape[0], shape[1])
		want := TransposeInto(New(shape[1], shape[0]), a)
		if got := Transpose(a); !Equal(got, want) {
			t.Fatalf("Transpose of a %v tensor differs from the element-wise oracle", shape)
		}
	}
}

func TestApplyIntoAliasedDestination(t *testing.T) {
	a := FromSlice([]float64{-2, -1, 0, 1}, 2, 2)
	ApplyInto(a, a, func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0
	})
	want := []float64{0, 0, 0, 1}
	for i, v := range want {
		if a.Data[i] != v {
			t.Fatalf("aliased ApplyInto = %v, want %v", a.Data, want)
		}
	}
}

func TestIntoVariantsMatchAllocatingOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Randn(rng, 1, 4, 6)
	b := Randn(rng, 1, 4, 6)
	v := Randn(rng, 1, 6)
	if !Equal(AddInto(New(4, 6), a, b), Add(a, b)) {
		t.Fatal("AddInto mismatch")
	}
	if !Equal(SubInto(New(4, 6), a, b), Sub(a, b)) {
		t.Fatal("SubInto mismatch")
	}
	if !Equal(MulInto(New(4, 6), a, b), Mul(a, b)) {
		t.Fatal("MulInto mismatch")
	}
	if !Equal(ScaleInto(New(4, 6), a, -1.5), Scale(a, -1.5)) {
		t.Fatal("ScaleInto mismatch")
	}
	if !Equal(AddRowVectorInto(New(4, 6), a, v), AddRowVector(a, v)) {
		t.Fatal("AddRowVectorInto mismatch")
	}
	if !Equal(SumRowsInto(Full(3, 6), a), SumRows(a)) {
		t.Fatal("SumRowsInto mismatch")
	}
}

func TestGetPooledReturnsZeroedTensor(t *testing.T) {
	dirty := GetPooled(3, 4)
	for i := range dirty.Data {
		dirty.Data[i] = float64(i + 1)
	}
	Recycle(dirty)
	// A pool hit of the same element count must come back zeroed with the
	// requested (possibly different) shape.
	got := GetPooled(4, 3)
	if got.Shape[0] != 4 || got.Shape[1] != 3 {
		t.Fatalf("pooled shape = %v, want [4 3]", got.Shape)
	}
	for i, v := range got.Data {
		if v != 0 {
			t.Fatalf("pooled tensor not zeroed at %d: %v", i, got.Data)
		}
	}
	if got.Len() != 12 {
		t.Fatalf("pooled len = %d", got.Len())
	}
}

func TestRecycleNilIsNoop(t *testing.T) {
	Recycle(nil, New(2), nil)
}
