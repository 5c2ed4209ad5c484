package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// matMulInto computes a@b into dst, which must be a.Rows×b.Cols and must
// not alias a or b: the plain product, on gemm with no epilogue. dst is
// overwritten, not accumulated into.
func matMulInto(dst, a, b *Tensor) *Tensor {
	m, k, n := a.Rows, a.Cols, b.Cols
	if k != b.Rows {
		panic(fmt.Sprintf("tensor: matMulInto inner dims %d vs %d", k, b.Rows))
	}
	checkMatMulDst("matMulInto", dst, m, n)
	gemm(dst.Data, a.Data, b.Data, nil, m, k, n, k, 1, 0)
	return dst
}

// serialMatMul is the reference kernel: the axpy triple loop the package
// ran before the dot-product kernel, which skips every term whose a entry
// is zero. For finite b the two agree bitwise (see FuzzMatMul).
func serialMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Rows, a.Cols, b.Cols
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
				orow[j] += float64(av * brow[j])
			}
		}
	}
	return out
}

// TestParallelMatMulBitwiseIdenticalToSerial runs every product form, on
// every kernel, against the zero-skipping reference. The larger shapes
// have odd row counts and column counts that are not multiples of 16, so
// every row and column remainder runs.
func TestParallelMatMulBitwiseIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 7, 5}, {16, 24, 40}, {97, 103, 89}, {256, 64, 128}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		want := serialMatMul(a, b)
		at := transpose(a)
		for _, kern := range kernels() {
			withKernel(kern, func() {
				if got := matMul(a, b); !sameBits(got, want) {
					t.Fatalf("%v: matMulInto %dx%dx%d differs from serial", kern, m, k, n)
				}
				if got := MatMulTransAInto(New(m, n), at, b); !sameBits(got, want) {
					t.Fatalf("%v: MatMulTransAInto %dx%dx%d differs from serial", kern, m, k, n)
				}
			})
		}
	}
}

// TestMatMulColumnBlocks checks every product form and every epilogue on
// every kernel, bitwise against ieeeMatMul and the plain-loop passes, for
// shapes that end in each column block: n mod 4 is 0, 1, 2 and 3, n runs
// past one, two and three 16-wide blocks, k is 0 (every product is +0),
// and m is 1 (no row pair), odd (a pair, then one row), or 4 and more
// (four-row tiles, then every count of rows left). The operands, bias and
// gate mix signed zeros, subnormals, extremes and infinities into
// eighth-step values; a NaN in a or b becomes −0, since it would turn its
// whole row or column of the result into NaN and hide the rest, while
// the bias and the gate keep theirs.
func TestMatMulColumnBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][3]int{
		{1, 1, 1}, {1, 5, 2}, {1, 3, 3}, {1, 9, 4}, {1, 24, 40},
		{2, 7, 5}, {3, 4, 6}, {5, 6, 7}, {4, 3, 8}, {3, 10, 13},
		{2, 2, 16}, {3, 5, 17}, {5, 3, 18}, {1, 8, 19}, {2, 9, 31},
		{3, 11, 32}, {7, 16, 33}, {6, 40, 10}, {40, 40, 40},
		{9, 6, 24}, {8, 5, 56}, {11, 7, 34}, {16, 16, 18}, {9, 3, 72},
		{3, 0, 17}, {1, 0, 1}, {4, 0, 40}, {1, 40, 1}, {0, 4, 5}, {5, 4, 0},
	}
	value := func() float64 { return fuzzValue(byte(rng.Intn(256))) }
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := New(m, k), New(k, n)
		for _, d := range [][]float64{a.Data, b.Data} {
			for i := range d {
				d[i] = value()
				if math.IsNaN(d[i]) {
					d[i] = math.Copysign(0, -1)
				}
			}
		}
		checkProducts(t, a, b, ieeeMatMul(a, b))
		bias, gate := make([]float64, n), make([]float64, m*n)
		for _, d := range [][]float64{bias, gate} {
			for i := range d {
				d[i] = value()
			}
		}
		checkEpilogues(t, a, b, bias, gate)
	}
}

// TestMatMulAllocsWhenWarm pins the products and the transpose of a
// layer's passes at zero allocations on every kernel.
func TestMatMulAllocsWhenWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, wb := Randn(rng, 1, 16, 24), Randn(rng, 1, 25, 40)
	w := FromSlice(wb.Data[:24*40], 24, 40)
	dOut, dx := Randn(rng, 1, 16, 40), New(16, 24)
	out, wt, dw := New(16, 40), New(40, 24), New(24, 40)
	for name, product := range map[string]func(){
		"MatMulInto":       func() { matMulInto(out, x, w) },
		"AffineInto":       func() { AffineInto(out, x, wb, true) },
		"MatMulGateInto":   func() { MatMulGateInto(dx, dOut, wt, x) },
		"TransposeInto":    func() { TransposeInto(wt, w) },
		"MatMulTransAInto": func() { MatMulTransAInto(dw, x, dOut) },
	} {
		for _, kern := range kernels() {
			withKernel(kern, func() {
				if allocs := testing.AllocsPerRun(100, product); allocs != 0 {
					t.Errorf("%s on %v: %v allocations per call, want 0", name, kern, allocs)
				}
			})
		}
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Randn(rng, 1, 33, 17)
	b := Randn(rng, 1, 17, 29)
	want := ieeeMatMul(a, b)
	dst := New(33, 29)
	for i := range dst.Data {
		dst.Data[i] = 99 // stale contents must be overwritten
	}
	got := matMulInto(dst, a, b)
	if got != dst {
		t.Fatal("matMulInto did not return dst")
	}
	if !sameBits(got, want) {
		t.Fatal("matMulInto differs from the IEEE loop")
	}
}

// transposeOracle writes the transpose of a into dst element by
// element, walking dst in row order, where TransposeInto walks a.
func transposeOracle(dst, a *Tensor) *Tensor {
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			dst.Data[j*a.Rows+i] = a.At(i, j)
		}
	}
	return dst
}

// TestTransposeIntoMatchesTranspose checks both kernels on shapes with
// and without edges past the AVX2 kernel's 4×4 tiles, the paper model's
// weight (40×10) and the largest the suite transposes (72×100).
func TestTransposeIntoMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, shape := range [][2]int{{5, 9}, {1, 7}, {7, 1}, {16, 40}, {40, 10}, {72, 100}, {13, 6}, {4, 4}} {
		a := Randn(rng, 1, shape[0], shape[1])
		want := transposeOracle(New(shape[1], shape[0]), a)
		for _, kern := range elementwiseKernels() {
			withKernel(kern, func() {
				if got := transpose(a); !sameBits(got, want) {
					t.Fatalf("TransposeInto on %v of a %v tensor differs from the element-wise oracle", kern, shape)
				}
			})
		}
	}
}

// TestGemmKernels logs the gemm kernels this machine runs, so that a test
// log shows whether the AVX-512 kernel was covered, and checks
// avx512OK's reading of CPUID and XCR0: AVX-512F counts only where the
// operating system saves the opmask and both halves of the ZMM state, as
// well as the XMM and YMM state; otherwise gemm stays on AVX2.
func TestGemmKernels(t *testing.T) {
	t.Logf("gemm kernels on this machine: %v", kernels())
	if want := haveAVX2() && haveAVX512(); useAVX512 != want {
		t.Fatalf("useAVX512 = %v, want %v", useAVX512, want)
	}
	const avx2, avx512f = 1 << 5, 1 << 16
	for _, c := range []struct {
		ebx7, xcr0 uint32
		want       bool
	}{
		{avx2 | avx512f, 0xE7, true},
		{avx512f, 0xE6, true},
		{^uint32(0), ^uint32(0), true},
		{avx2, 0xE7, false},
		{^uint32(avx512f), 0xFF, false},
		{avx2 | avx512f, 0x07, false}, // AVX2 state only
		{avx2 | avx512f, 0xC6, false}, // no opmask state
		{avx2 | avx512f, 0xA6, false}, // no upper halves of Z0–Z15
		{avx2 | avx512f, 0x66, false}, // no Z16–Z31
		{avx2 | avx512f, 0xE1, false}, // no XMM or YMM state
		{0, 0, false},
	} {
		if got := avx512OK(c.ebx7, c.xcr0); got != c.want {
			t.Errorf("avx512OK(%#x, %#x) = %v, want %v", c.ebx7, c.xcr0, got, c.want)
		}
	}
}
