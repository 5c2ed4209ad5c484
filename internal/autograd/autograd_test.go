package autograd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netmax/internal/tensor"
)

// numericalGrad computes d(loss)/d(x[i]) by central differences.
func numericalGrad(f func() float64, x *tensor.Tensor, i int) float64 {
	const h = 1e-6
	orig := x.Data[i]
	x.Data[i] = orig + h
	fp := f()
	x.Data[i] = orig - h
	fm := f()
	x.Data[i] = orig
	return (fp - fm) / (2 * h)
}

func TestAddBackward(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	b := NewLeaf(tensor.FromSlice([]float64{3, 4}, 2), true)
	out := Mean(Add(a, b))
	Backward(out)
	for i := 0; i < 2; i++ {
		if math.Abs(a.Grad.Data[i]-0.5) > 1e-12 {
			t.Fatalf("a.Grad[%d] = %v, want 0.5", i, a.Grad.Data[i])
		}
		if math.Abs(b.Grad.Data[i]-0.5) > 1e-12 {
			t.Fatalf("b.Grad[%d] = %v, want 0.5", i, b.Grad.Data[i])
		}
	}
}

func TestSubBackward(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	b := NewLeaf(tensor.FromSlice([]float64{3, 4}, 2), true)
	Backward(Mean(Sub(a, b)))
	if b.Grad.Data[0] != -0.5 {
		t.Fatalf("b.Grad = %v, want -0.5", b.Grad.Data[0])
	}
}

func TestMulBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	at := tensor.Randn(rng, 1, 3)
	bt := tensor.Randn(rng, 1, 3)
	a := NewLeaf(at, true)
	b := NewLeaf(bt, true)
	loss := func() float64 {
		return tensor.Mul(at, bt).Mean()
	}
	Backward(Mean(Mul(a, b)))
	for i := 0; i < 3; i++ {
		want := numericalGrad(loss, at, i)
		if math.Abs(a.Grad.Data[i]-want) > 1e-5 {
			t.Fatalf("grad a[%d] = %v, numerical %v", i, a.Grad.Data[i], want)
		}
	}
}

func TestMatMulBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	at := tensor.Randn(rng, 1, 2, 3)
	bt := tensor.Randn(rng, 1, 3, 2)
	forward := func() float64 { return tensor.MatMul(at, bt).Mean() }

	a := NewLeaf(at, true)
	b := NewLeaf(bt, true)
	Backward(Mean(MatMul(a, b)))
	for i := range at.Data {
		want := numericalGrad(forward, at, i)
		if math.Abs(a.Grad.Data[i]-want) > 1e-5 {
			t.Fatalf("dA[%d] = %v, numerical %v", i, a.Grad.Data[i], want)
		}
	}
	for i := range bt.Data {
		want := numericalGrad(forward, bt, i)
		if math.Abs(b.Grad.Data[i]-want) > 1e-5 {
			t.Fatalf("dB[%d] = %v, numerical %v", i, b.Grad.Data[i], want)
		}
	}
}

func TestReLUBackward(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{-1, 2, 0, 3}, 4), true)
	Backward(Mean(ReLU(a)))
	want := []float64{0, 0.25, 0, 0.25}
	for i := range want {
		if a.Grad.Data[i] != want[i] {
			t.Fatalf("ReLU grad = %v, want %v", a.Grad.Data, want)
		}
	}
}

// zeroSkipMatMul is the axpy loop MatMul ran before the dot-product
// kernel: terms whose a entry is zero are skipped.
func zeroSkipMatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := tensor.New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return out
}

func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestMatMulBackwardMatchesTransposedReference checks MatMul's backward
// bitwise against the backward it replaced, which materialized Bᵀ and Aᵀ
// and multiplied with the zero-skipping loop. Operands and the upstream
// gradient are ReLU-sparse, as they are between the model's layers.
func TestMatMulBackwardMatchesTransposedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range [][3]int{{16, 24, 40}, {16, 40, 10}, {5, 3, 7}, {1, 1, 1}, {9, 9, 9}} {
		m, k, n := dims[0], dims[1], dims[2]
		at := tensor.Randn(rng, 1, m, k)
		bt := tensor.Randn(rng, 1, k, n)
		w := tensor.Randn(rng, 1, m, n)
		for _, v := range []*tensor.Tensor{at, bt, w} {
			tensor.ReLUInto(v, v)
		}
		a, b := NewLeaf(at, true), NewLeaf(bt, true)
		Backward(Mean(Mul(MatMul(a, b), Constant(w))))

		dOut := tensor.Scale(w, 1/float64(m*n))
		wantA := zeroSkipMatMul(dOut, tensor.Transpose(bt))
		wantB := zeroSkipMatMul(tensor.Transpose(at), dOut)
		if !sameBits(a.Grad, wantA) {
			t.Fatalf("%v: dA = %v, reference %v", dims, a.Grad.Data, wantA.Data)
		}
		if !sameBits(b.Grad, wantB) {
			t.Fatalf("%v: dB = %v, reference %v", dims, b.Grad.Data, wantB.Data)
		}
	}
}

// TestReLUSpecialValues pins ReLU at the IEEE edge cases: forward is x
// for x > 0 and +0 for x ≤ 0 (both zeros included) and NaN; backward
// passes the gradient only where x > 0 and is +0 elsewhere, even where the
// upstream gradient is negative.
func TestReLUSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	x := []float64{negZero, 0, math.NaN(), math.Inf(1), math.Inf(-1), sub, -sub, 2.5, -2.5}
	wantFwd := []float64{0, 0, 0, math.Inf(1), 0, sub, 0, 2.5, 0}
	w := []float64{-1, -2, -3, -4, -5, -6, -7, -8, -9}
	c := 1 / float64(len(x))
	wantGrad := []float64{0, 0, 0, -4 * c, 0, -6 * c, 0, -8 * c, 0}

	a := NewLeaf(tensor.FromSlice(append([]float64(nil), x...), len(x)), true)
	r := ReLU(a)
	if !sameBits(r.Data, tensor.FromSlice(wantFwd, len(x))) {
		t.Fatalf("ReLU(%v) = %v, want %v", x, r.Data.Data, wantFwd)
	}
	Backward(Mean(Mul(r, Constant(tensor.FromSlice(w, len(w))))))
	if !sameBits(a.Grad, tensor.FromSlice(wantGrad, len(x))) {
		t.Fatalf("ReLU grad at %v = %v, want %v", x, a.Grad.Data, wantGrad)
	}
}

func TestTanhBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	at := tensor.Randn(rng, 1, 4)
	forward := func() float64 { return tensor.Apply(at, math.Tanh).Mean() }
	a := NewLeaf(at, true)
	Backward(Mean(Tanh(a)))
	for i := range at.Data {
		want := numericalGrad(forward, at, i)
		if math.Abs(a.Grad.Data[i]-want) > 1e-5 {
			t.Fatalf("tanh grad[%d] = %v, numerical %v", i, a.Grad.Data[i], want)
		}
	}
}

func TestAddRowVectorBackward(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2), true)
	v := NewLeaf(tensor.FromSlice([]float64{10, 20}, 2), true)
	out := AddRowVector(a, v)
	Backward(Mean(out))
	// d mean / d v_j = (#rows)/(m*n) = 2/4 = 0.5
	for j := 0; j < 2; j++ {
		if math.Abs(v.Grad.Data[j]-0.5) > 1e-12 {
			t.Fatalf("bias grad = %v, want 0.5", v.Grad.Data)
		}
	}
}

func TestSoftmaxCrossEntropyMatchesManual(t *testing.T) {
	logits := tensor.FromSlice([]float64{2, 1, 0.1, 0, 0, 5}, 2, 3)
	labels := []int{0, 2}
	l := NewLeaf(logits, true)
	loss := SoftmaxCrossEntropy(l, labels)
	// manual computation
	manual := 0.0
	for i := 0; i < 2; i++ {
		row := logits.Data[i*3 : (i+1)*3]
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v)
		}
		manual -= math.Log(math.Exp(row[labels[i]]) / sum)
	}
	manual /= 2
	if math.Abs(loss.Item()-manual) > 1e-10 {
		t.Fatalf("loss = %v, manual = %v", loss.Item(), manual)
	}
}

func TestSoftmaxCrossEntropyGradNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	logits := tensor.Randn(rng, 1, 3, 4)
	labels := []int{1, 0, 3}
	forward := func() float64 {
		l := NewLeaf(logits, false)
		return SoftmaxCrossEntropy(l, labels).Item()
	}
	l := NewLeaf(logits, true)
	Backward(SoftmaxCrossEntropy(l, labels))
	for i := range logits.Data {
		want := numericalGrad(forward, logits, i)
		if math.Abs(l.Grad.Data[i]-want) > 1e-4 {
			t.Fatalf("xent grad[%d] = %v, numerical %v", i, l.Grad.Data[i], want)
		}
	}
}

func TestSoftmaxGradSumsToZeroPerRow(t *testing.T) {
	// Property: each row of the cross-entropy gradient sums to 0
	// (softmax probabilities sum to one).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(4), 2+rng.Intn(5)
		logits := tensor.Randn(rng, 2, m, n)
		labels := make([]int, m)
		for i := range labels {
			labels[i] = rng.Intn(n)
		}
		l := NewLeaf(logits, true)
		Backward(SoftmaxCrossEntropy(l, labels))
		for i := 0; i < m; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += l.Grad.Data[i*n+j]
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGradAccumulationOnSharedNode(t *testing.T) {
	// y = a + a: grad should be 2 * d(mean)
	a := NewLeaf(tensor.FromSlice([]float64{1, 1}, 2), true)
	Backward(Mean(Add(a, a)))
	if math.Abs(a.Grad.Data[0]-1.0) > 1e-12 {
		t.Fatalf("shared node grad = %v, want 1.0", a.Grad.Data[0])
	}
}

func TestConstantGetsNoGrad(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	c := Constant(tensor.FromSlice([]float64{3, 4}, 2))
	Backward(Mean(Mul(a, c)))
	if c.Grad != nil {
		t.Fatal("constant accumulated a gradient")
	}
	if a.Grad == nil {
		t.Fatal("leaf missing gradient")
	}
}

func TestZeroGrad(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	Backward(Mean(a))
	ZeroGrad(a)
	if a.Grad.Sum() != 0 {
		t.Fatal("ZeroGrad did not clear gradients")
	}
}

func TestBackwardTwiceAccumulates(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	out1 := Mean(a)
	Backward(out1)
	g1 := a.Grad.Clone()
	out2 := Mean(a)
	Backward(out2)
	for i := range g1.Data {
		if math.Abs(a.Grad.Data[i]-2*g1.Data[i]) > 1e-12 {
			t.Fatal("second Backward should accumulate")
		}
	}
}

func TestBackwardNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	Backward(a)
}

func TestScaleBackward(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	Backward(Mean(Scale(a, 10)))
	if math.Abs(a.Grad.Data[0]-5) > 1e-12 {
		t.Fatalf("scale grad = %v, want 5", a.Grad.Data[0])
	}
}

func TestDeepChainGradient(t *testing.T) {
	// f(x) = mean(relu(x W1 + b1) W2) — two-layer chain, check numerically.
	rng := rand.New(rand.NewSource(21))
	x := tensor.Randn(rng, 1, 2, 3)
	w1 := tensor.Randn(rng, 1, 3, 4)
	b1 := tensor.Randn(rng, 1, 4)
	w2 := tensor.Randn(rng, 1, 4, 2)
	forward := func() float64 {
		h := tensor.AddRowVector(tensor.MatMul(x, w1), b1)
		h = tensor.Apply(h, func(v float64) float64 {
			if v > 0 {
				return v
			}
			return 0
		})
		return tensor.MatMul(h, w2).Mean()
	}
	xv := NewLeaf(x, false)
	w1v := NewLeaf(w1, true)
	b1v := NewLeaf(b1, true)
	w2v := NewLeaf(w2, true)
	out := Mean(MatMul(ReLU(AddRowVector(MatMul(xv, w1v), b1v)), w2v))
	Backward(out)
	for i := range w1.Data {
		want := numericalGrad(forward, w1, i)
		if math.Abs(w1v.Grad.Data[i]-want) > 1e-5 {
			t.Fatalf("w1 grad[%d] = %v, numerical %v", i, w1v.Grad.Data[i], want)
		}
	}
	for i := range b1.Data {
		want := numericalGrad(forward, b1, i)
		if math.Abs(b1v.Grad.Data[i]-want) > 1e-5 {
			t.Fatalf("b1 grad[%d] = %v, numerical %v", i, b1v.Grad.Data[i], want)
		}
	}
}

// TestReleaseRecyclesForwardGraph checks what Release hands back to the
// arena: every pooled op output, the root included, and the forward
// temporaries a backward pass would have consumed; leaves stay intact.
func TestReleaseRecyclesForwardGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewLeaf(tensor.Randn(rng, 1, 3, 4), true)
	x := Constant(tensor.Randn(rng, 1, 5, 3))
	logits := ReLU(MatMul(x, w))
	xent := SoftmaxCrossEntropy(logits, []int{0, 1, 2, 3, 0})
	sq := Mean(Mul(logits, logits))
	root := Add(xent, sq)
	wData := append([]float64(nil), w.Data.Data...)
	Release(root)
	for _, v := range []*Value{logits, xent, sq, root} {
		if v.Data != nil || v.saved != nil {
			t.Fatalf("%s node still holds buffers after Release", v.label)
		}
	}
	if x.Data == nil || w.Data == nil || w.Grad != nil {
		t.Fatal("Release touched a leaf")
	}
	for i, d := range wData {
		if w.Data.Data[i] != d {
			t.Fatal("Release changed a leaf's data")
		}
	}
}

func hasNegativeZero(t *tensor.Tensor) bool {
	for _, v := range t.Data {
		if v == 0 && math.Signbit(v) {
			return true
		}
	}
	return false
}

// TestSoftmaxStoreMatchesAddPath backpropagates a negated cross-entropy
// through logits whose softmax underflows to +0, so the product p·scale is
// −0. A leaf whose gradient is stored directly (new, or cleared by
// ZeroGrad) must get the add path's bits, with no −0.
func TestSoftmaxStoreMatchesAddPath(t *testing.T) {
	logits := []float64{0, -1000, 3, 1, -1000, 0}
	labels := []int{0, 2}
	leaf := func() *Value {
		return NewLeaf(tensor.FromSlice(append([]float64(nil), logits...), 2, 3), true)
	}
	fresh, marked, added := leaf(), leaf(), leaf()
	marked.Grad = tensor.Full(7, 2, 3)
	ZeroGrad(marked)
	// Zeros written from outside carry no ZeroGrad mark: the add path.
	added.Grad = tensor.New(2, 3)
	for _, l := range []*Value{fresh, marked, added} {
		Backward(Scale(SoftmaxCrossEntropy(l, labels), -1))
	}
	if added.Grad.Data[1] != 0 {
		t.Fatalf("softmax did not underflow: gradient %v", added.Grad.Data)
	}
	for _, l := range []*Value{fresh, marked, added} {
		if hasNegativeZero(l.Grad) {
			t.Fatalf("logits gradient %v holds −0", l.Grad.Data)
		}
		if !sameBits(l.Grad, added.Grad) {
			t.Fatalf("logits gradient %v, add path %v", l.Grad.Data, added.Grad.Data)
		}
	}
}

// TestMixedWritersSum gives leaves several writers: w feeds a Linear node,
// which stores its first contribution, and a Mul node, which adds; x and b
// feed two Linear nodes. In every order of the three terms, after a fresh
// pass and after ZeroGrad, each leaf must hold the sum the all-add oracle
// graph computes. A write that left ZeroGrad's mark set would let a later
// store overwrite the contribution before it.
func TestMixedWritersSum(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	xd, wd, w2d := tensor.Randn(rng, 1, 5, 3), tensor.Randn(rng, 1, 3, 4), tensor.Randn(rng, 1, 3, 4)
	bd, c := tensor.Randn(rng, 1, 4), Constant(tensor.Randn(rng, 1, 3, 4))
	labels, labels2 := []int{0, 1, 2, 3, 0}, []int{3, 3, 1, 0, 2}
	leaves := func() []*Value {
		return []*Value{NewLeaf(xd.Clone(), true), NewLeaf(wd.Clone(), true), NewLeaf(w2d.Clone(), true), NewLeaf(bd.Clone(), true)}
	}
	// terms builds the three terms over leaves x, w, w2, b with either
	// linear op, in the given order.
	terms := func(l []*Value, linear func(x, w, b *Value) *Value, order []int) *Value {
		x, w, w2, b := l[0], l[1], l[2], l[3]
		ts := []*Value{
			SoftmaxCrossEntropy(linear(x, w, b), labels),
			Mean(Mul(w, c)),
			SoftmaxCrossEntropy(linear(x, w2, b), labels2),
		}
		return Add(Add(ts[order[0]], ts[order[1]]), ts[order[2]])
	}
	composed := func(x, w, b *Value) *Value { return AddRowVector(MatMul(x, w), b) }
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		got, want := leaves(), leaves()
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				ZeroGrad(got...)
				ZeroGrad(want...)
			}
			Backward(terms(got, Linear, order))
			Backward(terms(want, composed, order))
			for i := range got {
				if !sameBits(got[i].Grad, want[i].Grad) {
					t.Fatalf("order %v pass %d leaf %d: gradient %v, oracle %v", order, pass, i, got[i].Grad.Data, want[i].Grad.Data)
				}
			}
		}
	}
}
