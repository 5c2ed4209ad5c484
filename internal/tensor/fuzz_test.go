package tensor

import (
	"math"
	"testing"
)

// fuzzSpecials are the operand values a fuzz byte below 16 selects: signed
// zeros, subnormals, the extremes, infinities and NaN.
var fuzzSpecials = [16]float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -3,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	1e-300, 1e300,
}

// fuzzValue maps one fuzz byte to an operand value: a special below 16,
// otherwise an eighth-step value in [-15, 15].
func fuzzValue(c byte) float64 {
	if int(c) < len(fuzzSpecials) {
		return fuzzSpecials[c]
	}
	return float64(int(c)-136) / 8
}

// ieeeMatMul is the plain IEEE triple loop: every term is added, in
// ascending p, to an accumulator that starts at +0.
func ieeeMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Rows, a.Cols, b.Cols
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p] * b.Data[p*n+j])
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// sameBits reports whether got and want agree bit for bit, except that any
// NaN matches any NaN: IEEE 754 leaves NaN payloads and signs to the
// hardware's operand order, which a register-tiled kernel need not share.
func sameBits(got, want *Tensor) bool {
	for i, w := range want.Data {
		g := got.Data[i]
		if math.IsNaN(w) && math.IsNaN(g) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// kernel is one setting of the package's kernel switches: "go" runs every
// portable loop, "avx2" the AVX2 assembly, and "avx512" the AVX-512 gemm
// with the AVX2 assembly for every other pass.
type kernel struct {
	name         string
	avx2, avx512 bool
}

func (k kernel) String() string { return k.name }

// kernels lists the gemm kernels this machine runs: the pure-Go one
// always, the AVX2 one where the CPU and the operating system support
// AVX2, and the AVX-512 one where they support AVX-512F too.
func kernels() []kernel {
	ks := []kernel{{name: "go"}}
	if haveAVX2() {
		ks = append(ks, kernel{"avx2", true, false})
		if haveAVX512() {
			ks = append(ks, kernel{"avx512", true, true})
		}
	}
	return ks
}

// elementwiseKernels is kernels without "avx512": only gemm has an
// AVX-512 kernel, so every other pass would run its AVX2 assembly again.
func elementwiseKernels() []kernel {
	var ks []kernel
	for _, k := range kernels() {
		if !k.avx512 {
			ks = append(ks, k)
		}
	}
	return ks
}

// withKernel runs f under the setting k, and restores the switches
// afterwards.
func withKernel(k kernel, f func()) {
	old2, old512 := useAVX2, useAVX512
	useAVX2, useAVX512 = k.avx2, k.avx512
	defer func() { useAVX2, useAVX512 = old2, old512 }()
	f()
}

// checkProducts computes a·b on every kernel in each form a layer's passes
// use: matMulInto, matMulInto on a right operand that TransposeInto
// restored from its transpose (the input gradient), and MatMulTransAInto.
// Each writes into a destination full of stale values, and it fails
// unless each equals want bit for bit. Each destination is followed by a
// guard row of stale values, which no kernel may write.
func checkProducts(t *testing.T, a, b, want *Tensor) {
	t.Helper()
	m, n := a.Rows, b.Cols
	at, bt := transpose(a), transpose(b)
	for _, kern := range kernels() {
		withKernel(kern, func() {
			products := map[string]func(dst *Tensor){
				"matMulInto":               func(dst *Tensor) { matMulInto(dst, a, b) },
				"TransposeInto+matMulInto": func(dst *Tensor) { matMulInto(dst, a, transpose(bt)) },
				"MatMulTransAInto":         func(dst *Tensor) { MatMulTransAInto(dst, at, b) },
			}
			for name, product := range products {
				buf := make([]float64, (m+1)*n)
				for i := range buf {
					buf[i] = 7
				}
				g := FromSlice(buf[:m*n], m, n)
				product(g)
				if !sameBits(g, want) {
					t.Fatalf("%s on %v: %v, IEEE loop %v (a=%v b=%v)",
						name, kern, g.Data, want.Data, a.Data, b.Data)
				}
				for _, v := range buf[m*n:] {
					if v != 7 {
						t.Fatalf("%s on %v wrote past its %dx%d destination", name, kern, m, n)
					}
				}
			}
		})
	}
}

// epilogues lists every epilogue gemm takes: the bias row off and on,
// each with no gate, the lane's own (ReLU) and another matrix's (ReLU's
// backward).
var epilogues = []int{0, epBias, epReLU, epBias | epReLU, epGate, epBias | epGate}

// addRowVectorGo, reluGo and reluGradGo are the plain loops of the
// passes gemm's epilogue runs: the bias row add, ReLU (x where x > 0, +0
// where x ≤ 0 or NaN) and ReLU's backward (grad where x > 0, +0
// elsewhere). dst may alias a or grad.
func addRowVectorGo(dst, a, v []float64, m, n int) {
	for i := 0; i < m; i++ {
		for j, x := range v[:n] {
			dst[i*n+j] = a[i*n+j] + x
		}
	}
}

func reluGo(dst, a []float64) {
	for i, x := range a {
		if x > 0 {
			dst[i] = x
		} else {
			dst[i] = 0
		}
	}
}

func reluGradGo(dst, grad, x []float64) {
	for i, v := range x {
		if v > 0 {
			dst[i] = grad[i]
		} else {
			dst[i] = 0
		}
	}
}

// epilogueOracle returns the m×n product prod after the epilogue ep, run
// as the separate passes the plain loops are: the bias row add, then
// ReLU or the gate's mask.
func epilogueOracle(prod *Tensor, bias, gate []float64, ep int) *Tensor {
	m, n := prod.Rows, prod.Cols
	want := FromSlice(append([]float64(nil), prod.Data...), m, n)
	if ep&epBias != 0 {
		addRowVectorGo(want.Data, want.Data, bias, m, n)
	}
	if ep&epReLU != 0 {
		reluGo(want.Data, want.Data)
	}
	if ep&epGate != 0 {
		reluGradGo(want.Data, want.Data, gate)
	}
	return want
}

// checkEpilogues runs gemm with every epilogue on every kernel, on the
// first r rows of a (m×k) for each r from 1 to min(m, 9) and for r = m,
// so that every count of rows left after four-row tiles runs, in both
// stride forms: a natural (k, 1) and read through its transpose (1, m).
// b is k×n, bias n long and gate m×n. Each product goes into a destination
// of stale values followed by a guard row, which no kernel may write, and
// must equal ieeeMatMul followed by the plain-loop passes, bit for bit
// (any NaN matching any NaN). With all rows, the natural form also runs
// through the exported call that takes the epilogue, where there is one.
func checkEpilogues(t *testing.T, a, b *Tensor, bias, gate []float64) {
	t.Helper()
	m, k, n := a.Rows, a.Cols, b.Cols
	wb := append(append([]float64(nil), b.Data...), bias...)
	at := transpose(a)
	prod := ieeeMatMul(a, b)
	var counts []int
	for r := 1; r <= min(m, 9); r++ {
		counts = append(counts, r)
	}
	if m > 9 {
		counts = append(counts, m)
	}
	exported := map[int]func(dst *Tensor){
		epBias:          func(dst *Tensor) { AffineInto(dst, a, FromSlice(wb, k+1, n), false) },
		epBias | epReLU: func(dst *Tensor) { AffineInto(dst, a, FromSlice(wb, k+1, n), true) },
		epGate:          func(dst *Tensor) { MatMulGateInto(dst, a, b, FromSlice(gate, m, n)) },
	}
	for _, ep := range epilogues {
		want := epilogueOracle(prod, bias, gate, ep)
		for _, kern := range kernels() {
			withKernel(kern, func() {
				for _, r := range counts {
					forms := map[string]func(dst *Tensor){
						"natural": func(dst *Tensor) {
							gemm(dst.Data, a.Data, wb, gate, r, k, n, k, 1, ep)
						},
						"transposed": func(dst *Tensor) {
							gemm(dst.Data, at.Data, wb, gate, r, k, n, 1, m, ep)
						},
					}
					if call := exported[ep]; call != nil && r == m {
						forms["exported"] = call
					}
					for name, form := range forms {
						buf := make([]float64, (r+1)*n)
						for i := range buf {
							buf[i] = 7
						}
						g := FromSlice(buf[:r*n], r, n)
						form(g)
						if !sameBits(g, FromSlice(want.Data[:r*n], r, n)) {
							t.Fatalf("epilogue %#b, %s form, %d of %d rows on %v: %v, plain loops %v (a=%v b=%v bias=%v gate=%v)",
								ep, name, r, m, kern, g.Data, want.Data[:r*n], a.Data, b.Data, bias, gate)
						}
						for _, v := range buf[r*n:] {
							if v != 7 {
								t.Fatalf("epilogue %#b, %s form on %v wrote past its %dx%d destination", ep, name, kern, r, n)
							}
						}
					}
				}
			})
		}
	}
}

// FuzzMatMul checks the product forms of checkProducts, on every gemm
// kernel, against ieeeMatMul, and ieeeMatMul against serialMatMul, the
// zero-skipping loop, whenever b is finite; then every epilogue, through
// checkEpilogues. The first three bytes give m, k, n ≤ 40, so every
// column block (AVX2's 16, 8, 4, 2 and 1 wide, and AVX-512's 24, 16 and 8
// with every count of masked lanes, its 18 and 10, and its four-row
// blocks) is reached, alone and after the others. The further bytes are
// the entries of a, then of b, then of the bias row and the gate; when
// they run out they repeat from the start (with no further bytes every
// entry is 0).
func FuzzMatMul(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, k, n := int(data[0]%41), int(data[1]%41), int(data[2]%41)
		vals, next := data[3:], 0
		value := func() float64 {
			if len(vals) == 0 {
				return 0
			}
			v := fuzzValue(vals[next%len(vals)])
			next++
			return v
		}
		a, b := New(m, k), New(k, n)
		for i := range a.Data {
			a.Data[i] = value()
		}
		finiteB := true
		for i := range b.Data {
			b.Data[i] = value()
			finiteB = finiteB && !math.IsInf(b.Data[i], 0) && !math.IsNaN(b.Data[i])
		}
		want := ieeeMatMul(a, b)
		if finiteB {
			if old := serialMatMul(a, b); !sameBits(old, want) {
				t.Fatalf("zero-skipping loop %v differs from IEEE loop %v for finite b", old.Data, want.Data)
			}
		}
		checkProducts(t, a, b, want)
		bias, gate := make([]float64, n), make([]float64, m*n)
		for i := range bias {
			bias[i] = value()
		}
		for i := range gate {
			gate[i] = value()
		}
		checkEpilogues(t, a, b, bias, gate)
	})
}

// vectorKernels lists the element-wise kernels, and the transpose, as
// calls on operand slices: lens gives each operand's length for n lanes
// (n columns of rows-row operands for the column sums and the
// transpose), and run calls the kernel with the scalars s.
var vectorKernels = []struct {
	name string
	lens func(n, rows int) []int
	run  func(ops [][]float64, n, rows int, s [3]float64)
}{
	{"SGDStep", flat(3), func(ops [][]float64, _, _ int, s [3]float64) {
		SGDStep(ops[0], ops[1], ops[2], s[0], s[1], s[2])
	}},
	{"Blend", flat(2), func(ops [][]float64, _, _ int, s [3]float64) {
		Blend(ops[0], ops[1], s[0])
	}},
	{"AddScaled", flat(2), func(ops [][]float64, _, _ int, s [3]float64) {
		AddScaled(ops[0], ops[1], s[0])
	}},
	{"SumRowsInto", func(n, rows int) []int { return []int{n, rows * n} },
		func(ops [][]float64, n, rows int, _ [3]float64) {
			SumRowsInto(ops[0], FromSlice(ops[1], rows, n))
		}},
	{"TransposeInto", func(n, rows int) []int { return []int{rows * n, rows * n} },
		func(ops [][]float64, n, rows int, _ [3]float64) {
			TransposeInto(FromSlice(ops[0], n, rows), FromSlice(ops[1], rows, n))
		}},
}

// flat returns the lens of a kernel on k operands of n elements each.
func flat(k int) func(n, rows int) []int {
	return func(n, _ int) []int {
		lens := make([]int, k)
		for i := range lens {
			lens[i] = n
		}
		return lens
	}
}

// guardBits fills the memory around each fuzzed operand. It is a NaN with
// a payload no kernel produces: arithmetic quiets it, so any write there
// changes its bits.
const guardBits = 0x7FF4_0000_0000_DEAD

// guardedVec is a copy of an operand at offset off in a buffer whose other
// cells, 0–3 before it and 4 after it, hold guardBits.
type guardedVec struct {
	buf, op []float64
	off     int
}

func guarded(v []float64, off int) guardedVec {
	buf := make([]float64, off+len(v)+4)
	for j := range buf {
		buf[j] = math.Float64frombits(guardBits)
	}
	op := buf[off : off+len(v)]
	copy(op, v)
	return guardedVec{buf, op, off}
}

// intact reports whether every cell around the operand still holds
// guardBits.
func (g guardedVec) intact() bool {
	for j, v := range g.buf {
		if (j < g.off || j >= g.off+len(g.op)) && math.Float64bits(v) != guardBits {
			return false
		}
	}
	return true
}

// FuzzVectorKernels runs each kernel of vectorKernels with useAVX2 off (the Go
// loop, the oracle) and on, and requires the same bits in every operand
// afterwards, except that any NaN matches any NaN, as in FuzzMatMul. The
// first byte gives n ≤ 37 lanes, so every tail length follows every body
// length; the second an offset 0–3 of each operand in its buffer, so the
// vectors start at every alignment; the third 0–5 rows for the column
// sums and the transpose. The further bytes, repeated as in FuzzMatMul, are the scalars
// and then the operands' entries. The buffer around each operand must keep
// its guard bits.
func FuzzVectorKernels(f *testing.F) {
	f.Add([]byte{37, 1, 3, 16, 17, 18, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 200, 60})
	f.Add([]byte{5, 3, 1, 140, 150, 160, 13, 11, 12, 0, 1})
	f.Add([]byte{16, 0, 5, 130, 128, 137, 20, 255, 7, 9, 1, 0})
	f.Add([]byte{0, 2, 4})
	// c = −2 on MaxFloat64: c·x overflows to −Inf on its own, where a
	// fused multiply-add would give −MaxFloat64.
	f.Add([]byte{10, 0, 0, 120, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, off, rows := int(data[0]%38), int(data[1]%4), int(data[2]%6)
		vals, next := data[3:], 0
		value := func() float64 {
			if len(vals) == 0 {
				return 0
			}
			v := fuzzValue(vals[next%len(vals)])
			next++
			return v
		}
		s := [3]float64{value(), value(), value()}
		for _, k := range vectorKernels {
			lens := k.lens(n, rows)
			init := make([][]float64, len(lens))
			for i, l := range lens {
				init[i] = make([]float64, l)
				for j := range init[i] {
					init[i][j] = value()
				}
			}
			var want [][]float64
			for _, kern := range elementwiseKernels() {
				bufs, ops := make([]guardedVec, len(init)), make([][]float64, len(init))
				for i, v := range init {
					bufs[i] = guarded(v, off)
					ops[i] = bufs[i].op
				}
				withKernel(kern, func() { k.run(ops, n, rows, s) })
				for i, b := range bufs {
					if !b.intact() {
						t.Fatalf("%s on %v wrote outside operand %d (n=%d rows=%d offset=%d)",
							k.name, kern, i, n, rows, off)
					}
				}
				if want == nil {
					want = ops
					continue
				}
				for i := range ops {
					if !sameBits(FromSlice(ops[i], 1, len(ops[i])), FromSlice(want[i], 1, len(want[i]))) {
						t.Fatalf("%s operand %d on %v: %v, Go loop %v (n=%d rows=%d offset=%d scalars %v, operands %v)",
							k.name, i, kern, ops[i], want[i], n, rows, off, s, init)
					}
				}
			}
		}
	})
}
