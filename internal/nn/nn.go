// Package nn provides the MLP every trainer runs, its forward and backward
// pass, and the SGD optimizer.
//
// A central requirement of the decentralized algorithms in this repository is
// treating a model as a flat parameter vector that can be serialized, sent to
// a peer, and blended into another replica (Algorithm 2, lines 13-15 of the
// paper). Model therefore keeps its parameters, and their gradients, in one
// flat vector each, and exposes VectorLen/CopyVector/SetVector/BlendVector
// views over them next to Loss and Evaluate.
//
// The network is a fixed chain, so its gradient is one hand-written pass
// instead of a recorded graph. Every gradient element is stored once, never
// added to a previous value: a training step needs no zero fill. Every
// product in this package is rounded on its own (float64(x*y)), so no
// architecture may fuse it into a multiply-add and the bits are those of
// amd64 everywhere.
//
// A pass does only the work its caller reads. Loss runs the forward pass
// and returns a handle: Backward writes the gradient, and the loss itself
// is computed only if Item is called, which no training step does. The
// evaluations split the same way: EvalLoss divides only each row's label
// entry of the softmax, Accuracy compares argmax logits and runs no
// softmax, and Evaluate returns both.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"netmax/internal/tensor"
)

// Model is a feed-forward network of affine layers y = xW + b with ReLU
// between them, trained on mean softmax cross-entropy. Its parameters lie
// layer by layer in one flat vector, each layer's W (row-major) then b,
// and its gradients in a second vector of the same layout. The model also
// owns the buffers of its forward and backward passes, so a model must
// not run two passes at once.
type Model struct {
	params, grads []float64
	layers        []layer
	// soft is the top layer's softmax, run by Backward and by the
	// evaluations that return a loss.
	soft tensor.Softmax
}

// layer is one affine map of the chain with the buffers of its passes. It
// holds every tensor by value, so the layer slice is the only allocation
// for their headers.
type layer struct {
	// Views into Model.params and Model.grads: w is W, and wb is W with b
	// as one more row, the block the forward pass reads; db is b's
	// gradient.
	w, wb, dw tensor.Tensor
	db        []float64
	// out is the layer's output on the last batch: ReLU(xW+b) below the
	// top layer, the logits at it. The forward pass sizes it.
	out tensor.Tensor
	// grad is the gradient of the loss with respect to xW+b, and wt holds
	// Wᵀ for the input gradient dx = dOut@Wᵀ (the input layer computes no
	// input gradient and has none). Backward sizes both, so a model that
	// only evaluates carries neither: their Data stays nil.
	grad, wt tensor.Tensor
}

// newModel builds the chain widths[0] → … → widths[len-1] with
// Xavier-style weights drawn from rng layer by layer, and zero biases.
func newModel(rng *rand.Rand, widths []int) *Model {
	m := zeroModel(widths)
	for _, l := range m.layers {
		std := math.Sqrt(2.0 / float64(l.w.Rows+l.w.Cols))
		for i := range l.w.Data {
			l.w.Data[i] = float64(rng.NormFloat64() * std)
		}
	}
	return m
}

// zeroModel builds the chain widths[0] → … → widths[len-1] with every
// parameter zero.
func zeroModel(widths []int) *Model {
	total := 0
	for i := 0; i+1 < len(widths); i++ {
		total += (widths[i] + 1) * widths[i+1]
	}
	m := &Model{params: make([]float64, total), grads: make([]float64, total), layers: make([]layer, len(widths)-1)}
	off := 0
	for i := range m.layers {
		in, out := widths[i], widths[i+1]
		l := &m.layers[i]
		w, b := off, off+in*out
		off = b + out
		l.w = tensor.Tensor{Rows: in, Cols: out, Data: m.params[w:b]}
		l.dw = tensor.Tensor{Rows: in, Cols: out, Data: m.grads[w:b]}
		l.wb, l.db = tensor.Tensor{Rows: in + 1, Cols: out, Data: m.params[w:off]}, m.grads[b:off]
	}
	return m
}

// Clone returns a model with m's layout and parameters and buffers of its
// own: its gradients are zero, as a new model's are, and the two may run
// passes at the same time.
func (m *Model) Clone() *Model {
	widths := []int{m.layers[0].w.Rows}
	for _, l := range m.layers {
		widths = append(widths, l.w.Cols)
	}
	c := zeroModel(widths)
	copy(c.params, m.params)
	return c
}

// VectorLen returns the total number of scalar parameters.
func (m *Model) VectorLen() int { return len(m.params) }

// CopyVector copies all parameters into dst, which must have length
// VectorLen, and returns dst.
func (m *Model) CopyVector(dst []float64) []float64 {
	if len(dst) != len(m.params) {
		panic(fmt.Sprintf("nn: CopyVector dst length %d, want %d", len(dst), len(m.params)))
	}
	copy(dst, m.params)
	return dst
}

// SetVector overwrites all parameters from src (length VectorLen).
func (m *Model) SetVector(src []float64) {
	if len(src) != len(m.params) {
		panic(fmt.Sprintf("nn: SetVector src length %d, want %d", len(src), len(m.params)))
	}
	copy(m.params, src)
}

// BlendVector performs params += c*(v - params) over the flat parameter
// view, i.e. params = (1-c)*params + c*v. This is exactly the second-step
// consensus update x_i ← x_i − αθ with θ = (ρ/2)(d_im+d_mi)/p_im (x_i − x_m)
// of Algorithm 2 when c = αρ(d_im+d_mi)/(2 p_im). It runs on tensor.Blend,
// which takes four parameters at a time where the CPU has AVX2, with the
// same bits as the scalar loop.
func (m *Model) BlendVector(c float64, v []float64) {
	if len(v) != len(m.params) {
		panic(fmt.Sprintf("nn: BlendVector length %d, want %d", len(v), len(m.params)))
	}
	tensor.Blend(m.params, v, c)
}

// BlendModel is BlendVector toward y's parameters, read in place: it gives
// the bits of BlendVector(c, y.Vector()) without the copy. y must have m's
// layout.
func (m *Model) BlendModel(c float64, y *Model) {
	m.BlendVector(c, y.params)
}

// AddVectorTo adds the parameters to dst in place, dst[i] += params[i],
// with the bits of adding CopyVector's output (float64(1·x) = x). dst must
// have length VectorLen.
func (m *Model) AddVectorTo(dst []float64) {
	if len(dst) != len(m.params) {
		panic(fmt.Sprintf("nn: AddVectorTo dst length %d, want %d", len(dst), len(m.params)))
	}
	tensor.AddScaled(dst, m.params, 1)
}

// GradVector copies all parameter gradients into dst (zeros before the
// first Backward) and returns dst.
func (m *Model) GradVector(dst []float64) []float64 {
	if len(dst) != len(m.grads) {
		panic(fmt.Sprintf("nn: GradVector dst length %d, want %d", len(dst), len(m.grads)))
	}
	copy(dst, m.grads)
	return dst
}

// AddScaledGrad adds c times the parameter gradients to dst element by
// element, dst[i] += c·grad[i], reading the gradients in place. dst must
// have length VectorLen.
func (m *Model) AddScaledGrad(dst []float64, c float64) {
	if len(dst) != len(m.grads) {
		panic(fmt.Sprintf("nn: AddScaledGrad dst length %d, want %d", len(dst), len(m.grads)))
	}
	tensor.AddScaled(dst, m.grads, c)
}

// SetGradVector overwrites all parameter gradients from src (length
// VectorLen). Used by gradient-averaging algorithms (allreduce, parameter
// server).
func (m *Model) SetGradVector(src []float64) {
	if len(src) != len(m.grads) {
		panic(fmt.Sprintf("nn: SetGradVector src length %d, want %d", len(src), len(m.grads)))
	}
	copy(m.grads, src)
}

// Loss is the mean softmax cross-entropy of one forward pass, which
// Backward differentiates. The pass computes no loss: Item does, from the
// logits the pass left in the top layer.
type Loss struct {
	m      *Model
	x      *tensor.Tensor
	labels []int
}

// Item returns the loss: per row, minus the log of its label's softmax
// probability, floored at 1e-300, subtracted in row order from +0 and
// divided once by the row count. It runs the model's softmax on the
// logits of the pass that returned l, as EvalLoss does, so the value is
// EvalLoss's on the same batch. It is valid until the model's next pass
// (a Loss or an evaluation). It writes the softmax buffers, which
// Backward reruns from the logits, so calling it leaves Backward's
// gradient unchanged.
func (l Loss) Item() float64 {
	l.m.soft.Run(&l.m.layers[len(l.m.layers)-1].out)
	nll := 0.0
	for i, y := range l.labels {
		nll = subLogProb(nll, l.m.soft.Prob(i, y))
	}
	return nll / float64(len(l.labels))
}

// subLogProb returns nll minus the log of probability p floored at 1e-300.
func subLogProb(nll, p float64) float64 {
	if p < 1e-300 {
		p = 1e-300
	}
	return nll - tensor.Log(p)
}

// Backward writes the gradient of the loss with respect to every
// parameter into the model's gradient vector, overwriting the previous
// one. It reads the activations of the forward pass that returned l, so
// it must run before the model's next pass (a Loss or an evaluation).
//
// At the top layer the softmax writes the gradient with respect to the
// logits directly: p/rows per entry, less 1/rows at the label. Then per
// layer, top down: db = Σ_rows dOut, dW = xᵀ@dOut, and below the top
// layer dx = dOut@Wᵀ masked by ReLU's derivative, one gated product
// (tensor.MatMulGateInto) that keeps an element where the ReLU's output
// is > 0 and writes +0 elsewhere. The mask is read from the ReLU output
// rather than its input: one is > 0 exactly where the other is.
func (l Loss) Backward() {
	layers := l.m.layers
	rows, top := len(l.labels), &layers[len(layers)-1]
	reuse(&top.grad, rows, top.out.Cols)
	l.m.soft.Run(&top.out)
	l.m.soft.GradInto(&top.grad, l.labels, 1/float64(rows))
	for i := len(layers) - 1; i >= 0; i-- {
		ly := &layers[i]
		tensor.SumRowsInto(ly.db, &ly.grad)
		if i == 0 {
			tensor.MatMulTransAInto(&ly.dw, l.x, &ly.grad)
			break
		}
		below := &layers[i-1]
		tensor.MatMulTransAInto(&ly.dw, &below.out, &ly.grad)
		reuse(&ly.wt, ly.w.Cols, ly.w.Rows)
		tensor.TransposeInto(&ly.wt, &ly.w)
		reuse(&below.grad, rows, below.out.Cols)
		tensor.MatMulGateInto(&below.grad, &ly.grad, &ly.wt, &below.out)
	}
}

// Loss runs the forward pass on a batch (batch × features) and
// returns the handle of its mean softmax cross-entropy.
func (m *Model) Loss(x *tensor.Tensor, labels []int) Loss {
	checkLabels(x, labels)
	m.forward(x)
	return Loss{m: m, x: x, labels: labels}
}

// evalBlock is the number of rows the evaluations pass through the network
// at a time, so that their buffers hold at most evalBlock rows whatever
// the size of the eval set.
const evalBlock = 64

// Evaluate returns the mean softmax cross-entropy on a batch and the
// fraction of rows whose argmax logit equals the label: EvalLoss and
// Accuracy in one pass, with their bits. Like Loss, it overwrites the
// buffers Backward reads.
func (m *Model) Evaluate(x *tensor.Tensor, labels []int) (loss, acc float64) {
	nll, correct := m.evaluate(x, labels, true, true)
	return nll / float64(x.Rows), accuracy(correct, x.Rows)
}

// EvalLoss is the loss half of Evaluate. It runs the batch in blocks of
// evalBlock rows; every row's terms are those of one pass over the whole
// batch, and the cross-entropy is summed over the rows in order and
// divided once, so it equals Loss(x, labels).Item() bitwise. Of each row's
// softmax it divides only the label's entry.
func (m *Model) EvalLoss(x *tensor.Tensor, labels []int) float64 {
	nll, _ := m.evaluate(x, labels, true, false)
	return nll / float64(x.Rows)
}

// Accuracy is the accuracy half of Evaluate (0 on an empty batch): it
// compares each row's argmax logit with the label and runs no softmax.
func (m *Model) Accuracy(x *tensor.Tensor, labels []int) float64 {
	_, correct := m.evaluate(x, labels, false, true)
	return accuracy(correct, x.Rows)
}

func accuracy(correct, rows int) float64 {
	if rows == 0 {
		return 0
	}
	return float64(correct) / float64(rows)
}

// evaluate runs the batch through the network in blocks of evalBlock rows
// and returns, where asked, the cross-entropy summed over the rows in
// order from +0 and the number of rows whose argmax logit is the label.
func (m *Model) evaluate(x *tensor.Tensor, labels []int, wantLoss, wantAcc bool) (nll float64, correct int) {
	checkLabels(x, labels)
	top := &m.layers[len(m.layers)-1]
	for r := 0; r < x.Rows; r += evalBlock {
		n := min(evalBlock, x.Rows-r)
		block := x.RowView(r, r+n)
		m.forward(&block)
		if wantLoss {
			m.soft.Run(&top.out)
			for i, y := range labels[r : r+n] {
				nll = subLogProb(nll, m.soft.Prob(i, y))
			}
		}
		if wantAcc {
			for i, y := range labels[r : r+n] {
				if top.out.ArgMaxRow(i) == y {
					correct++
				}
			}
		}
	}
	return nll, correct
}

func checkLabels(x *tensor.Tensor, labels []int) {
	if len(labels) != x.Rows {
		panic(fmt.Sprintf("nn: %d labels for %d rows", len(labels), x.Rows))
	}
}

// forward runs the chain on x, leaving each layer's output in its out
// buffer: the logits at the top layer. Each layer is one pass,
// tensor.AffineInto on its W|b block: the product, the bias added after
// it and, below the top layer, the ReLU.
func (m *Model) forward(x *tensor.Tensor) {
	in := x
	for i := range m.layers {
		l := &m.layers[i]
		reuse(&l.out, x.Rows, l.w.Cols)
		tensor.AffineInto(&l.out, in, &l.wb, i < len(m.layers)-1)
		in = &l.out
	}
}

// reuse reshapes t to rows × cols in place, keeping its storage when that
// holds enough elements and growing it to a zeroed one otherwise: a model
// that alternates batch sizes allocates only while the batch outgrows
// every earlier one.
func reuse(t *tensor.Tensor, rows, cols int) {
	if cap(t.Data) < rows*cols {
		t.Data = make([]float64, rows*cols)
	}
	t.Rows, t.Cols, t.Data = rows, cols, t.Data[:rows*cols]
}

// SGD is a stochastic-gradient-descent optimizer with momentum and weight
// decay, matching the paper's training configuration (momentum 0.9, weight
// decay 1e-4, step LR decay).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity []float64
}

// NewSGD creates an optimizer with the paper's default hyper-parameters and
// the given initial learning rate.
func NewSGD(lr float64) *SGD {
	return &SGD{LR: lr, Momentum: 0.9, WeightDecay: 1e-4}
}

// Step applies one SGD update to the model from its current gradients:
// per parameter, g' = g + WeightDecay·x, v = Momentum·v − LR·g' and
// x = x + v. It runs on tensor.SGDStep, which takes four parameters at a
// time where the CPU has AVX2, with the same bits as the scalar loop.
func (o *SGD) Step(m *Model) {
	if o.velocity == nil {
		o.velocity = make([]float64, len(m.params))
	}
	tensor.SGDStep(m.params, m.grads, o.velocity, o.LR, o.Momentum, o.WeightDecay)
}

// DecayLR multiplies the learning rate by factor (paper: 0.1 on plateau).
func (o *SGD) DecayLR(factor float64) { o.LR *= factor }
