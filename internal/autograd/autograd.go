// Package autograd implements a minimal reverse-mode automatic
// differentiation engine on top of internal/tensor.
//
// The design is a dynamic tape: every operation on *Value records its parents
// and a backward closure; Backward performs a topological sort from the loss
// node and accumulates gradients. This is the same execution model the paper's
// PyTorch substrate provides, built from scratch because no deep-learning
// framework is available in the target environment (see docs/ARCHITECTURE.md).
//
// Allocation discipline: op outputs, non-leaf gradients and backward-pass
// temporaries are drawn from the tensor arena (tensor.GetPooled) and handed
// back once Backward finishes, so steady-state training reuses the same
// buffers every iteration instead of allocating per op. Two consequences for
// callers:
//
//   - A graph may be backpropagated at most once. After Backward the
//     intermediate nodes' Data and Grad buffers have been recycled (only the
//     root's Data and the leaves' Data/Grad survive); build a fresh graph
//     for another pass — leaf gradients still accumulate across graphs.
//   - Values must not be shared between graphs that are backpropagated
//     separately: the first Backward would recycle buffers the second still
//     needs. Leaves (parameters, constants) are exempt and freely shared.
//   - A forward-only graph (evaluation) hands its buffers back through
//     Release once the caller has read its outputs.
//
// Gradients are written where they live: the first contribution a node
// receives from Linear, ReLU or SoftmaxCrossEntropy is stored straight
// into its Grad, with no zero fill, temporary or add (see gradDst for why
// the bits are those of adding it to zeros). Later contributions, and
// every contribution from the other ops, are added.
package autograd

import (
	"fmt"
	"math"
	"sync"

	"netmax/internal/tensor"
)

// Value is a node in the computation graph: a tensor plus (after Backward)
// its gradient with respect to the final scalar output.
type Value struct {
	Data *tensor.Tensor
	Grad *tensor.Tensor

	requiresGrad bool
	pooled       bool // Data is arena-owned: recycle it after Backward
	parents      []*Value
	backward     func() // accumulates into parents' Grad using v.Grad
	label        string
	// zeroed marks a leaf whose Grad ZeroGrad cleared and no gradient
	// write has touched since: its next contribution may be stored rather
	// than added.
	zeroed bool

	// saved is an arena-owned forward temporary that backward reads; the
	// backward closure recycles it, or the graph's release does if backward
	// never runs.
	saved *tensor.Tensor
}

// NewLeaf wraps t as a graph leaf. If requiresGrad, Backward will populate
// its Grad.
func NewLeaf(t *tensor.Tensor, requiresGrad bool) *Value {
	return &Value{Data: t, requiresGrad: requiresGrad, label: "leaf"}
}

// Constant wraps t as a leaf that does not require gradients.
func Constant(t *tensor.Tensor) *Value { return NewLeaf(t, false) }

// newPooledOp creates an op node whose output was drawn from the tensor
// arena; Backward recycles its Data once the sweep completes.
func newPooledOp(label string, data *tensor.Tensor, parents ...*Value) *Value {
	rg := false
	for _, p := range parents {
		if p.requiresGrad {
			rg = true
			break
		}
	}
	return &Value{Data: data, requiresGrad: rg, pooled: true, parents: parents, label: label}
}

func (v *Value) ensureGrad() {
	if v.Grad == nil {
		if v.parents == nil {
			// Leaf gradients persist across iterations (the optimizer reads
			// them after Backward), so they are not arena-owned.
			v.Grad = tensor.New(v.Data.Shape...)
		} else {
			// Must be zero-filled: accumulate adds into it.
			v.Grad = tensor.GetPooled(v.Data.Shape...)
		}
	}
}

// accumulate adds g into p.Grad if p participates in the graph.
func accumulate(p *Value, g *tensor.Tensor) {
	if !p.requiresGrad {
		return
	}
	p.ensureGrad()
	p.zeroed = false
	p.Grad.AddInPlace(g)
}

// gradDst returns where a kernel that overwrites its destination should
// write its contribution to p's gradient. With direct set, dst is p.Grad
// and the kernel's output is the gradient: p had none yet (a non-leaf
// gets a dirty arena buffer, a leaf a new tensor), or p is a leaf that
// ZeroGrad cleared and no write has touched since. Otherwise dst is an
// arena temporary for finishGrad to add in.
//
// A direct store of g gives the bits of the add path's +0 + g: the two
// differ only when g is −0 (+0 + NaN is that NaN, and arithmetic never
// makes a signalling one). The producers that store directly never emit
// −0. Under round-to-nearest x + y is −0 only when both are −0, so the
// gemm products (dW, dx) and SumRowsInto (db), whose accumulators start
// at +0, never are; the add path's +0 + g never is either. ReLUGradInto
// passes through an upstream gradient, itself a buffer written only by
// these rules, or stores +0, so by induction it never emits −0.
// SoftmaxCrossEntropy's p·scale is −0 when p underflowed to +0 and the
// upstream scale is negative, so its direct store adds +0 itself. Every
// other producer keeps the temporary and the add.
func gradDst(p *Value) (dst *tensor.Tensor, direct bool) {
	switch {
	case p.Grad == nil && p.parents != nil:
		p.Grad = tensor.GetPooledDirty(p.Data.Shape...)
	case p.Grad == nil:
		p.Grad = tensor.New(p.Data.Shape...)
	case !p.zeroed:
		return tensor.GetPooledDirty(p.Data.Shape...), false
	}
	p.zeroed = false
	return p.Grad, true
}

// finishGrad completes a write gradDst started: a temporary is added into
// p's gradient and recycled; a direct store is already in place.
func finishGrad(p *Value, dst *tensor.Tensor, direct bool) {
	if !direct {
		accumTemp(p, dst)
	}
}

// accumTemp accumulates an arena-owned temporary into p's gradient and
// immediately returns the buffer to the arena.
func accumTemp(p *Value, g *tensor.Tensor) {
	accumulate(p, g)
	tensor.Recycle(g)
}

// Add returns a + b.
func Add(a, b *Value) *Value {
	out := newPooledOp("add", tensor.AddInto(tensor.GetPooledDirty(a.Data.Shape...), a.Data, b.Data), a, b)
	out.backward = func() {
		accumulate(a, out.Grad)
		accumulate(b, out.Grad)
	}
	return out
}

// Sub returns a - b.
func Sub(a, b *Value) *Value {
	out := newPooledOp("sub", tensor.SubInto(tensor.GetPooledDirty(a.Data.Shape...), a.Data, b.Data), a, b)
	out.backward = func() {
		accumulate(a, out.Grad)
		if b.requiresGrad {
			accumTemp(b, tensor.ScaleInto(tensor.GetPooledDirty(out.Grad.Shape...), out.Grad, -1))
		}
	}
	return out
}

// Mul returns the elementwise product a*b.
func Mul(a, b *Value) *Value {
	out := newPooledOp("mul", tensor.MulInto(tensor.GetPooledDirty(a.Data.Shape...), a.Data, b.Data), a, b)
	out.backward = func() {
		if a.requiresGrad {
			accumTemp(a, tensor.MulInto(tensor.GetPooledDirty(out.Grad.Shape...), out.Grad, b.Data))
		}
		if b.requiresGrad {
			accumTemp(b, tensor.MulInto(tensor.GetPooledDirty(out.Grad.Shape...), out.Grad, a.Data))
		}
	}
	return out
}

// Scale returns a*s for scalar s.
func Scale(a *Value, s float64) *Value {
	out := newPooledOp("scale", tensor.ScaleInto(tensor.GetPooledDirty(a.Data.Shape...), a.Data, s), a)
	out.backward = func() {
		if a.requiresGrad {
			accumTemp(a, tensor.ScaleInto(tensor.GetPooledDirty(out.Grad.Shape...), out.Grad, s))
		}
	}
	return out
}

// Linear returns x@w + b for rank-2 x (batch×in) and w (in×out) and a bias
// vector b (out): each output element is its products summed from +0, then
// b[j] added, the operations of a matmul node followed by a row-vector
// add, in one node. Backward writes db, dW and, if x needs it, dx.
func Linear(x, w, b *Value) *Value {
	y := tensor.MatMulInto(tensor.GetPooledDirty(x.Data.Shape[0], w.Data.Shape[1]), x.Data, w.Data)
	out := newPooledOp("linear", tensor.AddRowVectorInto(y, y, b.Data), x, w, b)
	out.backward = func() {
		// db = Σ_rows dOut ; dW = xᵀ@dOut ; dx = dOut@Wᵀ
		if b.requiresGrad {
			dst, direct := gradDst(b)
			finishGrad(b, tensor.SumRowsInto(dst, out.Grad), direct)
		}
		if w.requiresGrad {
			dst, direct := gradDst(w)
			finishGrad(w, tensor.MatMulTransAInto(dst, x.Data, out.Grad), direct)
		}
		if x.requiresGrad {
			dst, direct := gradDst(x)
			finishGrad(x, tensor.MatMulTransBInto(dst, out.Grad, w.Data), direct)
		}
	}
	return out
}

// ReLU returns max(x, 0) elementwise: +0 wherever x ≤ 0 or x is NaN, and
// gradient only where x > 0.
func ReLU(a *Value) *Value {
	out := newPooledOp("relu", tensor.ReLUInto(tensor.GetPooledDirty(a.Data.Shape...), a.Data), a)
	out.backward = func() {
		if a.requiresGrad {
			dst, direct := gradDst(a)
			finishGrad(a, tensor.ReLUGradInto(dst, out.Grad, a.Data), direct)
		}
	}
	return out
}

// Tanh returns tanh(x) elementwise.
func Tanh(a *Value) *Value {
	out := newPooledOp("tanh", tensor.ApplyInto(tensor.GetPooledDirty(a.Data.Shape...), a.Data, math.Tanh), a)
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		g := tensor.GetPooledDirty(a.Data.Shape...)
		for i, y := range out.Data.Data {
			g.Data[i] = out.Grad.Data[i] * (1 - y*y)
		}
		accumTemp(a, g)
	}
	return out
}

// Mean returns the scalar mean of all elements as a 1-element value.
func Mean(a *Value) *Value {
	data := tensor.GetPooledDirty(1)
	data.Data[0] = a.Data.Mean()
	out := newPooledOp("mean", data, a)
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		c := out.Grad.Data[0] / float64(a.Data.Len())
		g := tensor.GetPooledDirty(a.Data.Shape...)
		for i := range g.Data {
			g.Data[i] = c
		}
		accumTemp(a, g)
	}
	return out
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss of rank-2 logits
// against integer class labels, with a numerically stable fused
// softmax+log+NLL. It returns a scalar value.
func SoftmaxCrossEntropy(logits *Value, labels []int) *Value {
	m, n := logits.Data.Shape[0], logits.Data.Shape[1]
	if len(labels) != m {
		panic(fmt.Sprintf("autograd: %d labels for %d rows", len(labels), m))
	}
	probs := tensor.GetPooledDirty(m, n)
	loss := 0.0
	for i := 0; i < m; i++ {
		row := logits.Data.Data[i*n : (i+1)*n]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		prow := probs.Data[i*n : (i+1)*n]
		for j, v := range row {
			e := math.Exp(v - maxv)
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
		loss -= math.Log(p)
	}
	loss /= float64(m)
	data := tensor.GetPooledDirty(1)
	data.Data[0] = loss
	out := newPooledOp("softmax-xent", data, logits)
	out.saved = probs
	out.backward = func() {
		scale := out.Grad.Data[0] / float64(m)
		g, direct := gradDst(logits)
		for i := 0; i < m; i++ {
			prow := probs.Data[i*n : (i+1)*n]
			grow := g.Data[i*n : (i+1)*n]
			for j := range grow {
				grow[j] = prow[j] * scale
			}
			grow[labels[i]] -= scale
			if direct {
				// The add path stored +0 + v, which turns a −0 (a
				// probability underflowed to +0 times a negative
				// scale) into +0 and leaves every other value alone.
				for j := range grow {
					grow[j] += 0
				}
			}
		}
		tensor.Recycle(probs)
		out.saved = nil
		finishGrad(logits, g, direct)
	}
	return out
}

// Item returns the scalar payload of a 1-element value.
func (v *Value) Item() float64 {
	if v.Data.Len() != 1 {
		panic("autograd: Item on non-scalar value")
	}
	return v.Data.Data[0]
}

// traversal is the scratch of one topological sort. Backward and Release
// borrow it from traversals, so a training or evaluation step does not
// allocate a fresh order slice and visited set. Visit marks live here
// rather than on Value because leaves are shared between graphs that may
// be walked concurrently.
type traversal struct {
	order   []*Value
	visited map[*Value]struct{}
	stack   []frame
}

type frame struct {
	node *Value
	idx  int
}

var traversals = sync.Pool{New: func() any {
	return &traversal{visited: make(map[*Value]struct{})}
}}

// sort fills tr.order with the graph reachable from v, every node after
// its parents, via an iterative DFS.
func (tr *traversal) sort(v *Value) {
	tr.stack = append(tr.stack, frame{v, 0})
	tr.visited[v] = struct{}{}
	for len(tr.stack) > 0 {
		f := &tr.stack[len(tr.stack)-1]
		if f.idx < len(f.node.parents) {
			p := f.node.parents[f.idx]
			f.idx++
			if _, seen := tr.visited[p]; !seen {
				tr.visited[p] = struct{}{}
				tr.stack = append(tr.stack, frame{p, 0})
			}
			continue
		}
		tr.order = append(tr.order, f.node)
		tr.stack = tr.stack[:len(tr.stack)-1]
	}
}

// done drops the traversal's references to the graph and returns it to
// the pool.
func (tr *traversal) done() {
	clear(tr.order)
	tr.order = tr.order[:0]
	clear(tr.stack[:cap(tr.stack)])
	clear(tr.visited)
	traversals.Put(tr)
}

// release returns the intermediates of a sorted graph to the arena: every
// non-leaf node loses its Grad and saved temporary, and its Data unless it
// is keep. Leaves keep both Data and Grad.
func (tr *traversal) release(keep *Value) {
	for _, n := range tr.order {
		if n.parents == nil {
			continue
		}
		if n.Grad != nil {
			tensor.Recycle(n.Grad)
			n.Grad = nil
		}
		if n.saved != nil {
			tensor.Recycle(n.saved)
			n.saved = nil
		}
		if n != keep && n.pooled {
			tensor.Recycle(n.Data)
			n.Data = nil
		}
	}
}

// Backward runs reverse-mode autodiff from v, which must be scalar.
// Gradients accumulate into every reachable node that requires gradients.
//
// After the sweep the graph's intermediate buffers are returned to the
// tensor arena: every non-leaf node loses its Grad, and every pooled op
// output except v itself loses its Data. v's Data survives so the loss can
// still be read with Item; leaf Data and Grad are never touched. The graph
// must therefore not be backpropagated a second time.
func Backward(v *Value) {
	if v.Data.Len() != 1 {
		panic("autograd: Backward requires a scalar output")
	}
	tr := traversals.Get().(*traversal)
	defer tr.done()
	tr.sort(v)
	// order is children-after-parents; walk it in reverse.
	v.ensureGrad()
	v.zeroed = false
	v.Grad.Data[0] = 1
	for i := len(tr.order) - 1; i >= 0; i-- {
		n := tr.order[i]
		if n.backward != nil && n.requiresGrad && n.Grad != nil {
			n.backward()
		}
	}
	tr.release(v)
}

// Release returns a forward-only graph rooted at v to the tensor arena once
// the caller has read what it needs: every pooled op output, v's included,
// loses its Data, and forward temporaries kept for a backward pass that
// will not run are recycled. Leaves are untouched. Neither v nor any other
// intermediate of the graph may be used afterwards.
func Release(v *Value) {
	tr := traversals.Get().(*traversal)
	defer tr.done()
	tr.sort(v)
	tr.release(nil)
}

// ZeroGrad clears the gradients of the given leaves, so a leaf that no
// graph reaches reads 0, and marks them: the next backward pass that
// reaches a marked leaf may store its first contribution over the zeros
// instead of adding it. Code outside this package that writes a marked
// leaf's Grad before that pass has its values overwritten, not added to.
func ZeroGrad(leaves ...*Value) {
	for _, l := range leaves {
		if l.Grad != nil {
			l.Grad.Zero()
			l.zeroed = true
		}
	}
}
