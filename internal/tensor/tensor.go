// Package tensor implements the small dense float64 matrix library the
// neural network in internal/nn runs on.
//
// A Tensor is a row-major matrix by type: its Rows and Cols are fields,
// so no operation checks a rank. The model's only vectors, a layer's bias
// and its gradient, are plain slices of its flat parameter and gradient
// vectors. RowView returns a run of a tensor's rows as a tensor by value
// that shares its storage, so a batch or an evaluation block of a dataset
// is read in place. Every operation whose name ends in "Into" writes into
// a caller-owned destination, so the model reuses its buffers from step to
// step.
//
// MatMulTransAInto, AffineInto and MatMulGateInto share one broadcast
// kernel, gemm: out[i, j:j+4] += a[i,p] · b[p, j:j+4], with the
// right operand in its natural row-major layout and the left one read
// through strides, so neither copies an operand. A product with a
// transposed right operand takes it from TransposeInto, which moves 4×4
// register tiles on AVX2 CPUs. On amd64 CPUs with AVX2 the kernel is
// assembly, four lanes to a YMM register (gemm_amd64.s), and where the CPU
// and the operating system support AVX-512F as well, eight lanes to a ZMM
// register, four rows at a time (gemm_avx512_amd64.s); elsewhere a
// pure-Go loop of the same form runs. The choice is made once, from CPUID
// and XCR0, and tests run every kernel the CPU has. Each lane is one
// output element that starts at +0 and adds its k products in ascending
// p, with multiply and add kept separate, so every kernel gives the same
// bits as the plain IEEE triple loop, whatever its register width. Every
// product in this package is rounded on its own (float64(x*y)), so no
// architecture may fuse it into a multiply-add. Every kernel runs on the
// calling goroutine: host parallelism lives above this package, in the
// drivers that run independent trainings side by side and in the
// synchronous baselines' gradient rounds. The kernel follows IEEE 754 for
// every term: a zero times an infinity contributes NaN. Whenever the right
// operand is finite the result equals that of a loop skipping zero terms,
// bit for bit, since adding a ±0 product to a sum that starts at +0 never
// changes it.
//
// gemm has an epilogue, which runs on each lane after its k products and
// before its store, on every kernel: a layer's bias, added as the
// (k+1)-th term from one more row of the right operand (AffineInto), and
// a gate that keeps the lane where a value is > 0 and writes +0 where it
// is ≤ 0 or NaN. The gate is the lane itself for ReLU (AffineInto) and
// the ReLU's output for its backward (MatMulGateInto). So a layer's
// forward is one pass, and so is its input gradient, with the bits of the
// product followed by separate bias, ReLU and mask passes.
//
// The element-wise passes follow the same pattern (elementwise.go): the
// momentum SGD step and the blend over a model's flat parameter vector
// (SGDStep, Blend), the weighted gradient sum (AddScaled) and the column
// sums of a layer's bias gradient (SumRowsInto). Their lanes are
// independent, so on AVX2 CPUs assembly (elementwise_amd64.s) runs four
// lanes to a register over the body whose length is a multiple of 4 (the
// column sums take a last pair of columns in an XMM register) and a Go
// loop runs the rest. The Go loop is the portable kernel and the
// assembly's oracle, and each lane does the same separate IEEE multiplies
// and adds in the same order on both, so the results keep their bits.
//
// Softmax (softmax.go) holds a batch's row softmax as exponentials and
// row sums, so that the cross-entropy gradient and the loss divide only
// the entries they read. Its assembly runs four rows at a time with the
// row as the lane, under the same rule.
//
// Exp, Log and Pow (exp.go) are the repository's own transcendental
// functions, with the same bits on every CPU, and ExpInto runs Exp over a
// vector the same way, in AVX2 assembly with Exp as its oracle.
package tensor

import (
	"fmt"
	"math/rand"
)

// Tensor is a dense, row-major Rows×Cols float64 matrix: row i is
// Data[i*Cols : (i+1)*Cols].
type Tensor struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero-filled rows×cols tensor.
func New(rows, cols int) *Tensor {
	checkDims(rows, cols)
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols tensor; data must hold
// exactly rows·cols elements.
func FromSlice(data []float64, rows, cols int) *Tensor {
	checkDims(rows, cols)
	if rows*cols != len(data) {
		panic(fmt.Sprintf("tensor: %dx%d does not match data length %d", rows, cols, len(data)))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// checkDims panics on a negative dimension. It stays out of line so that
// New inlines, and a tensor that does not outlive its caller costs one
// allocation, its data.
//
//go:noinline
func checkDims(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension in %dx%d", rows, cols))
	}
}

// Randn returns a rows×cols tensor with entries drawn from N(0, std²)
// using rng, in row-major order.
func Randn(rng *rand.Rand, std float64, rows, cols int) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = float64(rng.NormFloat64() * std)
	}
	return t
}

// At returns the element at row i, column j.
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Cols+j] }

// RowView returns rows [from, to) of t as a tensor that shares t's
// storage: a write through either shows in the other.
func (t *Tensor) RowView(from, to int) Tensor {
	return Tensor{Rows: to - from, Cols: t.Cols, Data: t.Data[from*t.Cols : to*t.Cols]}
}

// AffineInto computes x@W + b into dst in one pass, and with relu set
// ReLU of it: a layer's forward. wb is W (k×n) with the bias b as
// one more row, (k+1)×n, as a layer keeps them one after the other in its
// parameter vector. Each element adds b's entry after its k products,
// which gives the bits of the product followed by a row add; ReLU then
// keeps it where it is > 0 and writes +0 where it is ≤ 0 or NaN. dst must
// be x.Rows×n and must not alias x or wb.
func AffineInto(dst, x, wb *Tensor, relu bool) *Tensor {
	m, k, n := x.Rows, x.Cols, wb.Cols
	if k+1 != wb.Rows {
		panic(fmt.Sprintf("tensor: AffineInto inner dims %d vs %d weight rows and a bias row", k, wb.Rows))
	}
	checkMatMulDst("AffineInto", dst, m, n)
	ep := epBias
	if relu {
		ep |= epReLU
	}
	gemm(dst.Data, x.Data, wb.Data, nil, m, k, n, k, 1, ep)
	return dst
}

// MatMulGateInto computes a@b into dst, keeping each element where gate's
// element at the same index is > 0 and writing +0 where it is ≤ 0 or NaN:
// the input gradient of a layer below a ReLU, masked by the ReLU's output
// in the same pass. gate has dst's shape; dst must not alias a, b or
// gate.
func MatMulGateInto(dst, a, b, gate *Tensor) *Tensor {
	m, k, n := a.Rows, a.Cols, b.Cols
	if k != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulGateInto inner dims %d vs %d", k, b.Rows))
	}
	checkMatMulDst("MatMulGateInto", dst, m, n)
	if gate.Rows != m || gate.Cols != n {
		panic(fmt.Sprintf("tensor: MatMulGateInto gate is %dx%d, want %dx%d", gate.Rows, gate.Cols, m, n))
	}
	gemm(dst.Data, a.Data, b.Data, gate.Data, m, k, n, k, 1, epGate)
	return dst
}

// MatMulTransAInto computes aᵀ@b into dst for a (k×m) and b (k×n). dst must
// be m×n and must not alias a or b; it is overwritten. The
// kernel reads aᵀ through strides, so neither operand is copied. This is
// the dW = xᵀ@dOut product of a layer's backward pass.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	k, m, n := a.Rows, a.Cols, b.Cols
	if k != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransAInto inner dims %d vs %d", k, b.Rows))
	}
	checkMatMulDst("MatMulTransAInto", dst, m, n)
	gemm(dst.Data, a.Data, b.Data, nil, m, k, n, 1, m, 0)
	return dst
}

func checkMatMulDst(op string, dst *Tensor, m, n int) {
	if dst.Rows != m || dst.Cols != n {
		panic(fmt.Sprintf("tensor: %s dst is %dx%d, want %dx%d", op, dst.Rows, dst.Cols, m, n))
	}
}

// TransposeInto writes the transpose of a (m×n) into dst, which must be
// n×m and must not alias a, and returns dst. Where the
// CPU has AVX2 the assembly moves the rows above the last multiple of 4
// in 4×4 register tiles; the Go loops move the rest, and every row with
// useAVX2 off, four rows at a time where they can, so each row of dst
// takes four adjacent stores per visit. Only data moves, so the kernels
// agree bit for bit.
func TransposeInto(dst, a *Tensor) *Tensor {
	m, n := a.Rows, a.Cols
	checkMatMulDst("TransposeInto", dst, n, m)
	checkRows("TransposeInto", a, m, n)
	checkRows("TransposeInto", dst, n, m)
	ad, dd := a.Data, dst.Data
	i := 0
	if useAVX2 {
		i = m &^ 3
		transposeAVX2(dd, ad, i, n, m)
	}
	for ; i+4 <= m; i += 4 {
		r0, r1, r2, r3 := ad[i*n:][:n], ad[(i+1)*n:][:n], ad[(i+2)*n:][:n], ad[(i+3)*n:][:n]
		for j, v := range r0 {
			d := dd[j*m+i:][:4]
			d[0], d[1], d[2], d[3] = v, r1[j], r2[j], r3[j]
		}
	}
	for ; i < m; i++ {
		for j, v := range ad[i*n:][:n] {
			dd[j*m+i] = v
		}
	}
	return dst
}

// ArgMaxRow returns the index of the maximum element of row i.
func (t *Tensor) ArgMaxRow(i int) int {
	row := t.Data[i*t.Cols : (i+1)*t.Cols]
	best, bv := 0, row[0]
	for j, v := range row {
		if v > bv {
			best, bv = j, v
		}
	}
	return best
}
