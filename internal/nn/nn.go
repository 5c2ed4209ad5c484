// Package nn provides neural-network layers, models and the SGD optimizer
// built on the internal autograd engine.
//
// A central requirement of the decentralized algorithms in this repository is
// treating a model as a flat parameter vector that can be serialized, sent to
// a peer, and blended into another replica (Algorithm 2, lines 13-15 of the
// paper). Model therefore exposes VectorLen/CopyVector/SetVector/BlendVector
// views over its parameters in addition to the usual Forward/Loss methods.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"netmax/internal/autograd"
	"netmax/internal/tensor"
)

// Layer is a differentiable module.
type Layer interface {
	Forward(x *autograd.Value) *autograd.Value
	Params() []*autograd.Value
}

// Linear is a fully connected layer: y = xW + b.
type Linear struct {
	W *autograd.Value
	B *autograd.Value
}

// NewLinear creates a Linear layer with Xavier-style initialization.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	std := math.Sqrt(2.0 / float64(in+out))
	return &Linear{
		W: autograd.NewLeaf(tensor.Randn(rng, std, in, out), true),
		B: autograd.NewLeaf(tensor.New(out), true),
	}
}

// Forward applies the affine map.
func (l *Linear) Forward(x *autograd.Value) *autograd.Value {
	return autograd.Linear(x, l.W, l.B)
}

// Params returns the trainable leaves.
func (l *Linear) Params() []*autograd.Value { return []*autograd.Value{l.W, l.B} }

// ReLU is a stateless rectified-linear activation layer.
type ReLU struct{}

// Forward applies max(x,0).
func (ReLU) Forward(x *autograd.Value) *autograd.Value { return autograd.ReLU(x) }

// Params returns nil: ReLU has no parameters.
func (ReLU) Params() []*autograd.Value { return nil }

// Tanh is a stateless hyperbolic-tangent activation layer.
type Tanh struct{}

// Forward applies tanh elementwise.
func (Tanh) Forward(x *autograd.Value) *autograd.Value { return autograd.Tanh(x) }

// Params returns nil: Tanh has no parameters.
func (Tanh) Params() []*autograd.Value { return nil }

// Model is a feed-forward network with a flat-parameter-vector view.
type Model struct {
	Layers []Layer

	params []*autograd.Value // cached flattened parameter list
	total  int               // total scalar parameter count
}

// NewModel builds a model from layers and caches the parameter layout.
func NewModel(layers ...Layer) *Model {
	m := &Model{Layers: layers}
	for _, l := range layers {
		for _, p := range l.Params() {
			m.params = append(m.params, p)
			m.total += p.Data.Len()
		}
	}
	return m
}

// Forward runs the network on a batch of inputs (rank-2: batch x features).
func (m *Model) Forward(x *autograd.Value) *autograd.Value {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// Params returns the flattened list of trainable leaves.
func (m *Model) Params() []*autograd.Value { return m.params }

// VectorLen returns the total number of scalar parameters.
func (m *Model) VectorLen() int { return m.total }

// CopyVector copies all parameters into dst, which must have length
// VectorLen, and returns dst.
func (m *Model) CopyVector(dst []float64) []float64 {
	if len(dst) != m.total {
		panic(fmt.Sprintf("nn: CopyVector dst length %d, want %d", len(dst), m.total))
	}
	off := 0
	for _, p := range m.params {
		off += copy(dst[off:], p.Data.Data)
	}
	return dst
}

// Vector returns a fresh copy of the parameter vector.
func (m *Model) Vector() []float64 {
	return m.CopyVector(make([]float64, m.total))
}

// SetVector overwrites all parameters from src (length VectorLen).
func (m *Model) SetVector(src []float64) {
	if len(src) != m.total {
		panic(fmt.Sprintf("nn: SetVector src length %d, want %d", len(src), m.total))
	}
	off := 0
	for _, p := range m.params {
		off += copy(p.Data.Data, src[off:off+p.Data.Len()])
	}
}

// BlendVector performs params += c*(v - params) over the flat parameter
// view, i.e. params = (1-c)*params + c*v. This is exactly the second-step
// consensus update x_i ← x_i − αθ with θ = (ρ/2)(d_im+d_mi)/p_im (x_i − x_m)
// of Algorithm 2 when c = αρ(d_im+d_mi)/(2 p_im).
func (m *Model) BlendVector(c float64, v []float64) {
	if len(v) != m.total {
		panic(fmt.Sprintf("nn: BlendVector length %d, want %d", len(v), m.total))
	}
	off := 0
	for _, p := range m.params {
		d := p.Data.Data
		src := v[off:][:len(d)]
		for i, x := range d {
			d[i] = x + c*(src[i]-x)
		}
		off += len(d)
	}
}

// GradVector copies all parameter gradients into dst (zeros where a
// parameter has no gradient yet) and returns dst.
func (m *Model) GradVector(dst []float64) []float64 {
	if len(dst) != m.total {
		panic(fmt.Sprintf("nn: GradVector dst length %d, want %d", len(dst), m.total))
	}
	off := 0
	for _, p := range m.params {
		n := p.Data.Len()
		if p.Grad == nil {
			for i := 0; i < n; i++ {
				dst[off+i] = 0
			}
		} else {
			copy(dst[off:], p.Grad.Data)
		}
		off += n
	}
	return dst
}

// SetGradVector overwrites all parameter gradients from src (length
// VectorLen), allocating gradient tensors where missing. Used by
// gradient-averaging algorithms (allreduce, parameter server).
func (m *Model) SetGradVector(src []float64) {
	if len(src) != m.total {
		panic(fmt.Sprintf("nn: SetGradVector src length %d, want %d", len(src), m.total))
	}
	off := 0
	for _, p := range m.params {
		n := p.Data.Len()
		if p.Grad == nil {
			p.Grad = tensor.New(p.Data.Shape...)
		}
		copy(p.Grad.Data, src[off:off+n])
		off += n
	}
}

// ZeroGrad clears all parameter gradients.
func (m *Model) ZeroGrad() { autograd.ZeroGrad(m.params...) }

// Loss computes mean softmax cross-entropy on a batch, building the graph.
func (m *Model) Loss(x *tensor.Tensor, labels []int) *autograd.Value {
	logits := m.Forward(autograd.Constant(x))
	return autograd.SoftmaxCrossEntropy(logits, labels)
}

// Evaluate returns the mean softmax cross-entropy on a batch and the
// fraction of rows whose argmax logit equals the label, from one forward
// pass that keeps no graph: its buffers go back to the tensor arena before
// Evaluate returns. The loss equals Loss(x, labels).Item() bitwise.
func (m *Model) Evaluate(x *tensor.Tensor, labels []int) (loss, acc float64) {
	logits := m.Forward(autograd.Constant(x))
	xent := autograd.SoftmaxCrossEntropy(logits, labels)
	loss = xent.Item()
	if len(labels) > 0 {
		correct := 0
		for i := range labels {
			if logits.Data.ArgMaxRow(i) == labels[i] {
				correct++
			}
		}
		acc = float64(correct) / float64(len(labels))
	}
	autograd.Release(xent)
	return loss, acc
}

// Accuracy is the accuracy half of Evaluate (0 on an empty batch).
func (m *Model) Accuracy(x *tensor.Tensor, labels []int) float64 {
	_, acc := m.Evaluate(x, labels)
	return acc
}

// SGD is a stochastic-gradient-descent optimizer with momentum and weight
// decay, matching the paper's training configuration (momentum 0.9, weight
// decay 1e-4, step LR decay).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity [][]float64
}

// NewSGD creates an optimizer with the paper's default hyper-parameters and
// the given initial learning rate.
func NewSGD(lr float64) *SGD {
	return &SGD{LR: lr, Momentum: 0.9, WeightDecay: 1e-4}
}

// Step applies one SGD update to the model from its current gradients.
func (o *SGD) Step(m *Model) {
	params := m.Params()
	if o.velocity == nil {
		o.velocity = make([][]float64, len(params))
		for i, p := range params {
			o.velocity[i] = make([]float64, p.Data.Len())
		}
	}
	lr, momentum, decay := o.LR, o.Momentum, o.WeightDecay
	for i, p := range params {
		if p.Grad == nil {
			continue
		}
		d := p.Data.Data
		v := o.velocity[i][:len(d)]
		g := p.Grad.Data[:len(d)]
		for j, x := range d {
			gj := g[j] + decay*x
			v[j] = momentum*v[j] - lr*gj
			d[j] = x + v[j]
		}
	}
}

// DecayLR multiplies the learning rate by factor (paper: 0.1 on plateau).
func (o *SGD) DecayLR(factor float64) { o.LR *= factor }
