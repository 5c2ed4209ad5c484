package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netmax/internal/tensor"
)

// plainPass is what plainLoops computes for one batch.
type plainPass struct {
	loss, acc float64
	grad      []float64   // the parameter gradient, in Model's layout
	dz        [][]float64 // per layer: gradient of the loss w.r.t. xW+b
}

// plainLoops is the reference the model is checked against bitwise: the
// forward and backward pass of the MLP with layer widths widths and flat
// parameters params (Model's layout), written as plain loops. Every
// product is rounded on its own, every sum starts at +0 and runs in
// ascending index, and the softmax loop is the model's, on package
// tensor's Exp and Log. ReLU's derivative is read from its input, not its
// output.
func plainLoops(params []float64, widths []int, x *tensor.Tensor, labels []int) plainPass {
	rows, layers := len(labels), len(widths)-1
	ws, bs := make([][]float64, layers), make([][]float64, layers)
	gws, gbs := make([][]float64, layers), make([][]float64, layers)
	r := plainPass{grad: make([]float64, len(params)), dz: make([][]float64, layers)}
	off := 0
	for l := 0; l < layers; l++ {
		nw, nb := widths[l]*widths[l+1], widths[l+1]
		ws[l], gws[l] = params[off:off+nw], r.grad[off:off+nw]
		bs[l], gbs[l] = params[off+nw:off+nw+nb], r.grad[off+nw:off+nw+nb]
		off += nw + nb
	}

	// pre and outs hold each layer's xW+b and output: ReLU(xW+b) below
	// the top layer, the logits at it.
	pre, outs := make([][]float64, layers), make([][]float64, layers)
	in := x.Data
	for l := 0; l < layers; l++ {
		nin, nout := widths[l], widths[l+1]
		pre[l], outs[l] = make([]float64, rows*nout), make([]float64, rows*nout)
		for i := 0; i < rows; i++ {
			for j := 0; j < nout; j++ {
				s := 0.0
				for p := 0; p < nin; p++ {
					s += float64(in[i*nin+p] * ws[l][p*nout+j])
				}
				z := s + bs[l][j]
				pre[l][i*nout+j], outs[l][i*nout+j] = z, z
				if l < layers-1 && !(z > 0) {
					outs[l][i*nout+j] = 0
				}
			}
		}
		in = outs[l]
	}

	n := widths[layers]
	logits, probs := outs[layers-1], make([]float64, rows*n)
	loss := 0.0
	for i := 0; i < rows; i++ {
		row := logits[i*n : (i+1)*n]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		prow := probs[i*n : (i+1)*n]
		for j, v := range row {
			e := tensor.Exp(v - maxv)
			prow[j] = e
			sum += e
		}
		for j := range prow {
			prow[j] /= sum
		}
		p := prow[labels[i]]
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= tensor.Log(p)
	}
	r.loss = loss / float64(rows)
	correct := 0
	for i := 0; i < rows; i++ {
		best := 0
		for j := 1; j < n; j++ {
			if logits[i*n+j] > logits[i*n+best] {
				best = j
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	if rows > 0 {
		r.acc = float64(correct) / float64(rows)
	}

	scale := 1 / float64(rows)
	d := probs
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			d[i*n+j] = float64(d[i*n+j] * scale)
		}
		d[i*n+labels[i]] -= scale
	}
	for l := layers - 1; l >= 0; l-- {
		nin, nout := widths[l], widths[l+1]
		r.dz[l] = d
		in := x.Data
		if l > 0 {
			in = outs[l-1]
		}
		for j := 0; j < nout; j++ {
			s := 0.0
			for i := 0; i < rows; i++ {
				s += d[i*nout+j]
			}
			gbs[l][j] = s
		}
		for p := 0; p < nin; p++ {
			for j := 0; j < nout; j++ {
				s := 0.0
				for i := 0; i < rows; i++ {
					s += float64(in[i*nin+p] * d[i*nout+j])
				}
				gws[l][p*nout+j] = s
			}
		}
		if l == 0 {
			break
		}
		dx := make([]float64, rows*nin)
		for i := 0; i < rows; i++ {
			for p := 0; p < nin; p++ {
				s := 0.0
				for j := 0; j < nout; j++ {
					s += float64(d[i*nout+j] * ws[l][p*nout+j])
				}
				if !(pre[l-1][i*nin+p] > 0) {
					s = 0
				}
				dx[i*nin+p] = s
			}
		}
		d = dx
	}
	return r
}

// batch draws a rows × dim batch with N(0, 1) features and uniform labels
// below classes.
func batch(rng *rand.Rand, rows, dim, classes int) (*tensor.Tensor, []int) {
	x := tensor.Randn(rng, 1, rows, dim)
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return x, labels
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstPlainLoops runs Loss, Backward and Evaluate on m and fails
// unless the loss, every parameter gradient, Evaluate's loss and accuracy
// agree with plainLoops bit for bit, and Evaluate's loss with Loss's.
func checkAgainstPlainLoops(t *testing.T, name string, m *Model, widths []int, x *tensor.Tensor, labels []int) {
	t.Helper()
	want := plainLoops(vector(m), widths, x, labels)
	l := m.Loss(x, labels)
	l.Backward()
	if !sameFloat(l.Item(), want.loss) {
		t.Fatalf("%s: loss %v, plain loops %v", name, l.Item(), want.loss)
	}
	for i, g := range m.GradVector(make([]float64, m.VectorLen())) {
		if !sameFloat(g, want.grad[i]) {
			t.Fatalf("%s: gradient[%d] = %v, plain loops %v", name, i, g, want.grad[i])
		}
	}
	loss, acc := m.Evaluate(x, labels)
	if !sameFloat(loss, l.Item()) || !sameFloat(acc, want.acc) {
		t.Fatalf("%s: Evaluate = (%v, %v), want (%v, %v)", name, loss, acc, l.Item(), want.acc)
	}
}

// TestModelMatchesPlainLoops checks the model's passes bitwise against
// plainLoops: on the paper's shape (batch 16, 24 → 40 → 10), with no
// hidden layer, with two, and on random widths. Each model takes two
// passes with an SGD step between them, so the second pass's gradients
// must overwrite the first's.
func TestModelMatchesPlainLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type shape struct {
		batch  int
		widths []int
	}
	shapes := []shape{{16, []int{24, 40, 10}}, {7, []int{5, 3}}, {9, []int{6, 12, 9, 4}}}
	for len(shapes) < 25 {
		widths := make([]int, 2+rng.Intn(4))
		for i := range widths {
			widths[i] = 1 + rng.Intn(30)
		}
		widths[len(widths)-1]++ // at least two classes
		shapes = append(shapes, shape{1 + rng.Intn(20), widths})
	}
	for n, s := range shapes {
		last := len(s.widths) - 1
		m := ModelSpec{Hidden: s.widths[1:last]}.Build(int64(n), s.widths[0], s.widths[last])
		opt := NewSGD(0.1)
		for pass := 0; pass < 2; pass++ {
			x, labels := batch(rng, s.batch, s.widths[0], s.widths[last])
			checkAgainstPlainLoops(t, fmt.Sprintf("batch %d widths %v pass %d", s.batch, s.widths, pass), m, s.widths, x, labels)
			opt.Step(m)
		}
	}
}

// TestEvaluateInBlocksMatchesLoss checks Evaluate on batches that are
// shorter than one block, end on a block boundary and span several
// blocks: its loss equals Loss's bitwise, its accuracy plainLoops', and
// its buffers never hold more than one block of rows.
func TestEvaluateInBlocksMatchesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	widths := []int{24, 40, 10}
	for _, rows := range []int{1, evalBlock - 1, evalBlock, evalBlock + 1, 2*evalBlock + 3, 500} {
		m := SimResNet18.Build(int64(rows), 24, 10)
		x, labels := batch(rng, rows, 24, 10)
		loss, acc := m.Evaluate(x, labels)
		for i, l := range m.layers {
			if got := cap(l.out.Data) / widths[i+1]; got > evalBlock {
				t.Fatalf("%d rows: layer %d's buffer holds %d rows, want at most %d", rows, i, got, evalBlock)
			}
		}
		want := plainLoops(vector(m), widths, x, labels)
		if l := m.Loss(x, labels).Item(); !sameFloat(loss, l) || !sameFloat(l, want.loss) || !sameFloat(acc, want.acc) {
			t.Fatalf("%d rows: Evaluate = (%v, %v), Loss %v, plain loops (%v, %v)", rows, loss, acc, l, want.loss, want.acc)
		}
	}
}

// TestEvaluationsSizeNoBackwardBuffers evaluates a new model on an eval
// set of several blocks and on a training batch: no layer then holds a
// gradient or a weight transpose buffer. A training pass after the
// evaluations still matches plainLoops bitwise.
func TestEvaluationsSizeNoBackwardBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	widths := []int{24, 40, 10}
	m := SimResNet18.Build(5, 24, 10)
	x, labels := batch(rng, 16, 24, 10)
	test, testLabels := batch(rng, 2*evalBlock+3, 24, 10)
	m.EvalLoss(test, testLabels)
	m.Accuracy(test, testLabels)
	m.Evaluate(x, labels)
	for i, l := range m.layers {
		if l.grad.Data != nil || l.wt.Data != nil {
			t.Fatalf("layer %d holds backward buffers after evaluations only", i)
		}
	}
	checkAgainstPlainLoops(t, "after evaluations", m, widths, x, labels)
}

// TestItemLeavesGradientUnchanged reads a loss between its pass and
// Backward, and after Backward: the gradient must have the bits of a step
// that never read it, and both reads the loss of plainLoops.
func TestItemLeavesGradientUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	widths := []int{24, 40, 10}
	m := SimResNet18.Build(3, 24, 10)
	x, labels := batch(rng, 16, 24, 10)
	m.Loss(x, labels).Backward()
	want := m.GradVector(make([]float64, m.VectorLen()))
	l := m.Loss(x, labels)
	before := l.Item()
	l.Backward()
	for i, g := range m.GradVector(make([]float64, m.VectorLen())) {
		if !sameFloat(g, want[i]) {
			t.Fatalf("gradient[%d] = %v after Item, %v without", i, g, want[i])
		}
	}
	if ref := plainLoops(vector(m), widths, x, labels).loss; !sameFloat(before, ref) || !sameFloat(l.Item(), ref) {
		t.Fatalf("Item = %v before Backward and %v after, plain loops %v", before, l.Item(), ref)
	}
}

// TestEvaluationHalvesMatchEvaluate checks EvalLoss and Accuracy each
// bitwise against its half of Evaluate, on batches within one block and
// across several, with labels that the model gets right and wrong.
func TestEvaluationHalvesMatchEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, rows := range []int{1, 5, evalBlock + 3, 500} {
		m := SimResNet18.Build(int64(rows), 24, 10)
		x, labels := batch(rng, rows, 24, 10)
		loss, acc := m.Evaluate(x, labels)
		if got := m.EvalLoss(x, labels); !sameFloat(got, loss) {
			t.Fatalf("%d rows: EvalLoss = %v, Evaluate's loss %v", rows, got, loss)
		}
		if got := m.Accuracy(x, labels); !sameFloat(got, acc) {
			t.Fatalf("%d rows: Accuracy = %v, Evaluate's accuracy %v", rows, got, acc)
		}
	}
}

// zeroSkipMatMul is a@b by the axpy loop that skips every term whose a
// entry is zero: the reference the tape's MatMul backward was checked
// against. For finite operands it agrees bitwise with the kernels, which
// add those terms as zeros.
func zeroSkipMatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := a.Rows, a.Cols, b.Cols
	out := tensor.New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += float64(av * b.Data[p*n+j])
			}
		}
	}
	return out
}

func transposed(a *tensor.Tensor) *tensor.Tensor {
	return tensor.TransposeInto(tensor.New(a.Cols, a.Rows), a)
}

// TestBackwardMatchesTransposedReference checks, bitwise against
// zeroSkipMatMul on materialized transposes, each layer's dW = xᵀ@dOut
// and, below the top layer, dx = dOut@Wᵀ wherever the ReLU is active. The
// batch is ReLU-sparse, as the hidden activations and their gradients are,
// so the reference skips many of the terms the kernels add.
func TestBackwardMatchesTransposedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, widths := range [][]int{{24, 40, 10}, {5, 3, 7}, {1, 1, 2}, {9, 9, 9, 9}} {
		last := len(widths) - 1
		m := ModelSpec{Hidden: widths[1:last]}.Build(12, widths[0], widths[last])
		x, labels := batch(rng, 16, widths[0], widths[last])
		for k, v := range x.Data {
			x.Data[k] = max(v, 0)
		}
		m.Loss(x, labels).Backward()
		in := x
		for i := range m.layers {
			ly := &m.layers[i]
			want := zeroSkipMatMul(transposed(in), &ly.grad)
			for k, g := range ly.dw.Data {
				if !sameFloat(g, want.Data[k]) {
					t.Fatalf("widths %v layer %d: dW[%d] = %v, reference %v", widths, i, k, g, want.Data[k])
				}
			}
			if i > 0 {
				below := &m.layers[i-1]
				want := zeroSkipMatMul(&ly.grad, transposed(&ly.w))
				for k, g := range below.grad.Data {
					if below.out.Data[k] > 0 && !sameFloat(g, want.Data[k]) {
						t.Fatalf("widths %v layer %d: dx[%d] = %v, reference %v", widths, i, k, g, want.Data[k])
					}
				}
			}
			in = &ly.out
		}
	}
}

// TestUnderflowedSoftmaxGivesNoNegativeZero sets one logit near −1000, so
// its softmax probability underflows to +0. The gradient still matches
// plainLoops, and neither it nor the logits' gradient holds −0: a loss
// seeded with 1 has a positive scale, so p·scale is never −0.
func TestUnderflowedSoftmaxGivesNoNegativeZero(t *testing.T) {
	widths := []int{24, 40, 10}
	m := SimResNet18.Build(1, 24, 10)
	m.params[len(m.params)-10] = -1000 // the bias of class 0
	x, labels := batch(rand.New(rand.NewSource(4)), 16, 24, 10)
	checkAgainstPlainLoops(t, "bias −1000", m, widths, x, labels)
	m.Loss(x, labels).Backward() // the logits' gradient of this batch, read below
	dlogits := m.layers[1].grad.Data
	underflowed := false
	for i, y := range labels {
		underflowed = underflowed || (y != 0 && dlogits[i*10] == 0)
	}
	if !underflowed {
		t.Fatal("no softmax probability underflowed to 0")
	}
	for _, v := range append(m.GradVector(make([]float64, m.VectorLen())), dlogits...) {
		if v == 0 && math.Signbit(v) {
			t.Fatal("a gradient holds −0")
		}
	}
}

// numericalGrad checks every parameter gradient of m on (x, labels)
// against central differences, within tol.
func numericalGrad(t *testing.T, m *Model, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	const h = 1e-6
	m.Loss(x, labels).Backward()
	grad := m.GradVector(make([]float64, m.VectorLen()))
	for i, g := range grad {
		orig := m.params[i]
		m.params[i] = orig + h
		fp := m.Loss(x, labels).Item()
		m.params[i] = orig - h
		fm := m.Loss(x, labels).Item()
		m.params[i] = orig
		if want := (fp - fm) / (2 * h); math.Abs(g-want) > tol {
			t.Fatalf("gradient[%d] = %v, numerical %v", i, g, want)
		}
	}
}

// logitModel returns a model with no hidden layer and an identity batch
// whose logits are the rows × n values given: with x = I and b = 0 each
// logit is one weight times 1 plus ±0 terms, and dW is the gradient of
// the loss with respect to the logits.
func logitModel(logits []float64, rows, n int) (*Model, *tensor.Tensor) {
	m := ModelSpec{}.Build(1, rows, n)
	copy(m.params, logits)
	x := tensor.New(rows, rows)
	for i := 0; i < rows; i++ {
		x.Data[i*rows+i] = 1
	}
	return m, x
}

func TestSoftmaxCrossEntropyGradNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, x := logitModel(tensor.Randn(rng, 1, 3, 4).Data, 3, 4)
	numericalGrad(t, m, x, []int{1, 0, 3}, 1e-4)
}

func TestLinearGradNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := ModelSpec{}.Build(2, 3, 4)
	x, labels := batch(rng, 5, 3, 4)
	numericalGrad(t, m, x, labels, 1e-5)
}

// TestBiasGradSumsRows checks each layer's bias gradient bitwise against
// the column sums of the gradient at the layer's output, each sum starting
// at +0 and running down the rows.
func TestBiasGradSumsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := ModelSpec{Hidden: []int{6, 5}}.Build(4, 3, 4)
	x, labels := batch(rng, 7, 3, 4)
	m.Loss(x, labels).Backward()
	for i := range m.layers {
		ly := &m.layers[i]
		rows, n := ly.grad.Rows, ly.grad.Cols
		for j := 0; j < n; j++ {
			s := 0.0
			for r := 0; r < rows; r++ {
				s += ly.grad.Data[r*n+j]
			}
			if !sameFloat(ly.db[j], s) {
				t.Fatalf("layer %d: db[%d] = %v, column sum %v", i, j, ly.db[j], s)
			}
		}
	}
}

func TestDeepChainGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := ModelSpec{Hidden: []int{4, 5}}.Build(3, 3, 2)
	x, labels := batch(rng, 6, 3, 2)
	numericalGrad(t, m, x, labels, 1e-5)
}

func TestSoftmaxCrossEntropyMatchesManual(t *testing.T) {
	logits := []float64{2, 1, 0.1, 0, 0, 5}
	labels := []int{0, 2}
	m, x := logitModel(logits, 2, 3)
	manual := 0.0
	for i := 0; i < 2; i++ {
		row := logits[i*3 : (i+1)*3]
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v)
		}
		manual -= math.Log(math.Exp(row[labels[i]]) / sum)
	}
	manual /= 2
	if loss := m.Loss(x, labels).Item(); math.Abs(loss-manual) > 1e-10 {
		t.Fatalf("loss = %v, manual = %v", loss, manual)
	}
}

func TestSoftmaxGradSumsToZeroPerRow(t *testing.T) {
	// Property: each row of the cross-entropy gradient sums to 0
	// (softmax probabilities sum to one).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, n := 1+rng.Intn(4), 2+rng.Intn(5)
		m, x := logitModel(tensor.Randn(rng, 2, rows, n).Data, rows, n)
		labels := make([]int, rows)
		for i := range labels {
			labels[i] = rng.Intn(n)
		}
		m.Loss(x, labels).Backward()
		for i := 0; i < rows; i++ {
			s := 0.0
			for _, g := range m.grads[i*n : (i+1)*n] {
				s += g
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

// TestReLUBackward feeds the hidden unit the pre-activations −1, 2, 0
// and 3 (one-feature batch, weight 1, bias 0). Its gradient is the
// upstream gradient −d₀ + d₁ (second-layer weights −1 and 1) where the
// pre-activation is positive, and +0 elsewhere, although the upstream
// gradient is negative on every row (label 1).
func TestReLUBackward(t *testing.T) {
	m := ModelSpec{Hidden: []int{1}}.Build(1, 1, 2)
	copy(m.params, []float64{1, 0, -1, 1, 0, 0}) // W1, b1, W2, b2
	x := tensor.FromSlice([]float64{-1, 2, 0, 3}, 4, 1)
	m.Loss(x, []int{1, 1, 1, 1}).Backward()
	dlogits := m.layers[1].grad.Data
	for i, active := range []bool{false, true, false, true} {
		upstream := 0.0
		upstream += float64(dlogits[2*i] * -1)
		upstream += float64(dlogits[2*i+1] * 1)
		if !(upstream < 0) {
			t.Fatalf("row %d: upstream gradient %v, want negative", i, upstream)
		}
		want := 0.0
		if active {
			want = upstream
		}
		if got := m.layers[0].grad.Data[i]; !sameFloat(got, want) {
			t.Fatalf("ReLU gradient at %v = %v, want %v", x.Data[i], got, want)
		}
	}
}

// TestReLUSpecialValues pins ReLU at the IEEE edge cases. Each row of a
// one-feature batch is one case, and the hidden unit's weight is 1, so its
// pre-activation is the case itself (−0 arrives as +0: the product sum
// starts at +0). Forward is x for x > 0 and +0 for x ≤ 0 and NaN; backward
// passes the gradient only where x > 0 and is +0 elsewhere, even where the
// upstream gradient is negative, as it is on every finite row here (label
// 1, second-layer weights −1 and 1).
func TestReLUSpecialValues(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	cases := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), sub, -sub, 2.5, -2.5}
	wantFwd := []float64{0, 0, 0, math.Inf(1), 0, sub, 0, 2.5, 0}
	rows := len(cases)
	widths := []int{1, 1, 2}
	m := ModelSpec{Hidden: []int{1}}.Build(1, 1, 2)
	copy(m.params, []float64{1, 0, -1, 1, 0, 0}) // W1, b1, W2, b2
	x := tensor.FromSlice(append([]float64(nil), cases...), rows, 1)
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = 1
	}
	want := plainLoops(vector(m), widths, x, labels)
	m.Loss(x, labels).Backward()
	for i, w := range wantFwd {
		if got := m.layers[0].out.Data[i]; !sameFloat(got, w) {
			t.Fatalf("ReLU(%v) = %v, want %v", cases[i], got, w)
		}
		got := m.layers[0].grad.Data[i]
		switch {
		case math.IsInf(w, 1): // the logits are ±Inf, the gradient NaN
			if !math.IsNaN(got) {
				t.Fatalf("ReLU gradient at %v = %v, want NaN passed through", cases[i], got)
			}
		case w > 0:
			if !sameFloat(got, want.dz[0][i]) || !(got < 0) {
				t.Fatalf("ReLU gradient at %v = %v, want the negative upstream %v", cases[i], got, want.dz[0][i])
			}
		default:
			if !sameFloat(got, 0) {
				t.Fatalf("ReLU gradient at %v = %v, want +0", cases[i], got)
			}
		}
	}
}
