// Package tensor implements a small dense float64 tensor library used as the
// numeric substrate for the autograd engine and the neural-network layers.
//
// Tensors are row-major, at most rank 2 in practice (the model zoo uses
// vectors and matrices), but the type supports arbitrary rank. All operations
// allocate their result unless the method name ends in "Into" or is
// documented as in-place; "Into" variants write into a caller-owned
// destination so hot loops can reuse buffers (see GetPooled/Recycle for the
// size-keyed arena they pair with).
//
// MatMul, MatMulInto, MatMulTransBInto and MatMulTransAInto share one
// broadcast kernel, gemm: out[i, j:j+4] += a[i,p] · b[p, j:j+4], with the
// right operand in its natural row-major layout and the left one read
// through strides. MatMulInto and MatMulTransAInto copy nothing;
// MatMulTransBInto transposes its right operand, the layer's weight, into
// arena scratch. On amd64 CPUs with AVX2 the kernel is assembly; elsewhere
// a pure-Go loop of the same form runs, and tests run both. Each lane is
// one output element that starts at +0 and adds its k products in
// ascending p, with multiply and add kept separate, so both kernels give
// the same bits as the plain IEEE triple loop. Every product in this
// package is rounded on its own (float64(x*y)), so no architecture may fuse
// it into a multiply-add. Every kernel runs on the calling goroutine: host
// parallelism lives above this package, in the drivers that run
// independent trainings side by side and in the synchronous baselines'
// gradient rounds. The kernel follows IEEE 754 for every term: a zero
// times an infinity contributes NaN. Whenever the right operand is finite
// the result equals that of a loop skipping zero terms, bit for bit, since
// adding a ±0 product to a sum that starts at +0 never changes it.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, row-major float64 array with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", s))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v does not match data length %d", shape, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Randn returns a tensor with entries drawn from N(0, std²) using rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float64(rng.NormFloat64() * std)
	}
	return t
}

// Full returns a tensor filled with v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Rows returns the first dimension (1 for scalars/vectors of rank<1).
func (t *Tensor) Rows() int {
	if len(t.Shape) == 0 {
		return 1
	}
	return t.Shape[0]
}

// Cols returns the second dimension, or 1 if rank < 2.
func (t *Tensor) Cols() int {
	if len(t.Shape) < 2 {
		return 1
	}
	return t.Shape[1]
}

// At returns the element at a rank-2 index.
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Cols()+j] }

// Set assigns the element at a rank-2 index.
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Cols()+j] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v%v", t.Shape, t.Data)
}

func assertSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

func assertSameLen(op string, dst, a *Tensor) {
	if len(dst.Data) != len(a.Data) {
		panic(fmt.Sprintf("tensor: %s dst length %d, want %d", op, len(dst.Data), len(a.Data)))
	}
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	return AddInto(New(a.Shape...), a, b)
}

// AddInto writes a + b elementwise into dst (same element count as a and b).
// dst may alias either operand.
func AddInto(dst, a, b *Tensor) *Tensor {
	assertSameShape("AddInto", a, b)
	assertSameLen("AddInto", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	return SubInto(New(a.Shape...), a, b)
}

// SubInto writes a - b elementwise into dst (same element count as a and b).
// dst may alias either operand.
func SubInto(dst, a, b *Tensor) *Tensor {
	assertSameShape("SubInto", a, b)
	assertSameLen("SubInto", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
	return dst
}

// Mul returns the elementwise (Hadamard) product.
func Mul(a, b *Tensor) *Tensor {
	return MulInto(New(a.Shape...), a, b)
}

// MulInto writes the elementwise product a*b into dst (same element count).
// dst may alias either operand.
func MulInto(dst, a, b *Tensor) *Tensor {
	assertSameShape("MulInto", a, b)
	assertSameLen("MulInto", dst, a)
	for i := range a.Data {
		dst.Data[i] = float64(a.Data[i] * b.Data[i])
	}
	return dst
}

// Scale returns a*s.
func Scale(a *Tensor, s float64) *Tensor {
	return ScaleInto(New(a.Shape...), a, s)
}

// ScaleInto writes a*s into dst (same element count). dst may alias a.
func ScaleInto(dst, a *Tensor, s float64) *Tensor {
	assertSameLen("ScaleInto", dst, a)
	for i := range a.Data {
		dst.Data[i] = float64(a.Data[i] * s)
	}
	return dst
}

// AddInPlace adds b into a.
func (t *Tensor) AddInPlace(b *Tensor) {
	assertSameShape("AddInPlace", t, b)
	for i := range t.Data {
		t.Data[i] += b.Data[i]
	}
}

// AXPY performs t += s*b in place.
func (t *Tensor) AXPY(s float64, b *Tensor) {
	assertSameShape("AXPY", t, b)
	for i := range t.Data {
		t.Data[i] += float64(s * b.Data[i])
	}
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

func checkMatMulShapes(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 operands")
	}
	m, k, n = a.Shape[0], a.Shape[1], b.Shape[1]
	if k != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, b.Shape[0]))
	}
	return m, k, n
}

// MatMul returns a@b for rank-2 tensors (see MatMulInto for the reuse
// variant).
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := checkMatMulShapes(a, b)
	return MatMulInto(New(m, n), a, b)
}

// MatMulInto computes a@b into dst, which must have shape (a rows, b cols)
// and must not alias a or b. dst is overwritten, not accumulated into.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k, n := checkMatMulShapes(a, b)
	checkMatMulDst("MatMulInto", dst, m, n)
	gemm(dst.Data, a.Data, b.Data, m, k, n, k, 1)
	return dst
}

// MatMulTransBInto computes a@bᵀ into dst for a (m×k) and b (n×k). dst
// must have shape (m, n) and must not alias a or b; it is overwritten. b is
// transposed into arena scratch, since the kernel reads its right operand
// along n. This is the dx = dOut@Wᵀ product of autograd.Linear's backward,
// where b is the layer's weight.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransBInto requires rank-2 operands")
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	if k != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransBInto inner dims %d vs %d", k, b.Shape[1]))
	}
	checkMatMulDst("MatMulTransBInto", dst, m, n)
	bt := GetPooledDirty(k, n)
	transposeInto(bt, b)
	gemm(dst.Data, a.Data, bt.Data, m, k, n, k, 1)
	Recycle(bt)
	return dst
}

// MatMulTransAInto computes aᵀ@b into dst for a (k×m) and b (k×n). dst must
// have shape (m, n) and must not alias a or b; it is overwritten. The
// kernel reads aᵀ through strides, so neither operand is copied. This is
// the dW = xᵀ@dOut product of autograd.Linear's backward.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransAInto requires rank-2 operands")
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if k != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransAInto inner dims %d vs %d", k, b.Shape[0]))
	}
	checkMatMulDst("MatMulTransAInto", dst, m, n)
	gemm(dst.Data, a.Data, b.Data, m, k, n, 1, m)
	return dst
}

func checkMatMulDst(op string, dst *Tensor, m, n int) {
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d %d]", op, dst.Shape, m, n))
	}
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires rank-2 operand")
	}
	out := New(a.Shape[1], a.Shape[0])
	transposeInto(out, a)
	return out
}

// transposeInto writes aᵀ into dst. Rows of a go four at a time, so each
// row of dst takes four adjacent stores per visit instead of one.
func transposeInto(dst, a *Tensor) {
	m, n := a.Shape[0], a.Shape[1]
	ad, dd := a.Data, dst.Data
	i := 0
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
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Dot returns the inner product of two tensors viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: Dot length mismatch")
	}
	s := 0.0
	for i := range a.Data {
		s += float64(a.Data[i] * b.Data[i])
	}
	return s
}

// Apply returns f applied elementwise.
func Apply(a *Tensor, f func(float64) float64) *Tensor {
	return ApplyInto(New(a.Shape...), a, f)
}

// ApplyInto writes f applied elementwise over a into dst (same element
// count). dst may alias a: the transform is purely elementwise.
func ApplyInto(dst, a *Tensor, f func(float64) float64) *Tensor {
	assertSameLen("ApplyInto", dst, a)
	for i, v := range a.Data {
		dst.Data[i] = f(v)
	}
	return dst
}

// ReLUInto writes max(x, 0) elementwise over a into dst (same element
// count): x where x > 0, +0 where x ≤ 0 or x is NaN. dst may alias a. The
// select is a bit mask, not a branch, so mixed-sign data costs no
// mispredictions.
func ReLUInto(dst, a *Tensor) *Tensor {
	assertSameLen("ReLUInto", dst, a)
	dd := dst.Data[:len(a.Data)]
	for i, x := range a.Data {
		b := math.Float64bits(x)
		dd[i] = math.Float64frombits(b & positiveMask(b))
	}
	return dst
}

// ReLUGradInto writes ReLU's backward into dst: grad where x > 0, +0
// elsewhere (x ≤ 0 or NaN). dst, grad and x have the same element count;
// dst may alias grad.
func ReLUGradInto(dst, grad, x *Tensor) *Tensor {
	assertSameLen("ReLUGradInto", dst, x)
	assertSameLen("ReLUGradInto", grad, x)
	dd, gd := dst.Data[:len(x.Data)], grad.Data[:len(x.Data)]
	for i, v := range x.Data {
		dd[i] = math.Float64frombits(math.Float64bits(gd[i]) & positiveMask(math.Float64bits(v)))
	}
	return dst
}

// positiveMask returns all ones if the float64 with bit pattern b is > 0,
// and all zeros if it is ≤ 0 or NaN, without a branch. Read as an int64 s,
// such a float is exactly 0 < s ≤ +Inf's bits: then -s and s-(+Inf bits)-1
// are both negative, while for zeros, negatives and NaNs one of them is
// not, so the AND of their sign bits is the mask.
func positiveMask(b uint64) uint64 {
	const posInf = 0x7FF0000000000000
	s := int64(b)
	return uint64((-s & (s - posInf - 1)) >> 63)
}

// ArgMaxRow returns the index of the maximum element of row i (rank-2).
func (t *Tensor) ArgMaxRow(i int) int {
	c := t.Cols()
	row := t.Data[i*c : (i+1)*c]
	best, bv := 0, row[0]
	for j, v := range row {
		if v > bv {
			best, bv = j, v
		}
	}
	return best
}

// AddRowVector adds vector v (length = cols) to every row of a rank-2 tensor.
func AddRowVector(a, v *Tensor) *Tensor {
	return AddRowVectorInto(New(a.Shape...), a, v)
}

// AddRowVectorInto writes a + v (v broadcast over rows) into dst (same
// element count as a). dst may alias a.
func AddRowVectorInto(dst, a, v *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	if v.Len() != n {
		panic(fmt.Sprintf("tensor: AddRowVector length %d vs cols %d", v.Len(), n))
	}
	assertSameLen("AddRowVectorInto", dst, a)
	vd := v.Data[:n]
	for i := 0; i < m; i++ {
		d, r := dst.Data[i*n:][:n], a.Data[i*n:][:n]
		for j, x := range vd {
			d[j] = r[j] + x
		}
	}
	return dst
}

// SumRows returns the column-wise sums of a rank-2 tensor as a vector.
func SumRows(a *Tensor) *Tensor {
	return SumRowsInto(New(a.Shape[1]), a)
}

// SumRowsInto writes the column-wise sums of rank-2 a into vector dst
// (length = a cols), overwriting it. dst must not alias a.
func SumRowsInto(dst, a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	if dst.Len() != n {
		panic(fmt.Sprintf("tensor: SumRowsInto dst length %d, want %d", dst.Len(), n))
	}
	d := dst.Data[:n]
	clear(d)
	for i := 0; i < m; i++ {
		for j, x := range a.Data[i*n:][:n] {
			d[j] += x
		}
	}
	return dst
}

// Equal reports exact equality of shape and data.
func Equal(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether all elements differ by at most tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
