package autograd

import "netmax/internal/tensor"

// MatMul and AddRowVector are the two nodes nn.Linear built before the
// fused Linear op, kept as the oracle Linear is checked against. Their
// backward passes take the temporary-plus-add path for every gradient.

// MatMul returns a@b for rank-2 values.
func MatMul(a, b *Value) *Value {
	out := newPooledOp("matmul", tensor.MatMulInto(tensor.GetPooledDirty(a.Data.Shape[0], b.Data.Shape[1]), a.Data, b.Data), a, b)
	out.backward = func() {
		// dA = dOut @ B^T ; dB = A^T @ dOut
		if a.requiresGrad {
			accumTemp(a, tensor.MatMulTransBInto(tensor.GetPooledDirty(a.Data.Shape...), out.Grad, b.Data))
		}
		if b.requiresGrad {
			accumTemp(b, tensor.MatMulTransAInto(tensor.GetPooledDirty(b.Data.Shape...), a.Data, out.Grad))
		}
	}
	return out
}

// AddRowVector adds a bias vector v to every row of rank-2 a.
func AddRowVector(a, v *Value) *Value {
	out := newPooledOp("addrow", tensor.AddRowVectorInto(tensor.GetPooledDirty(a.Data.Shape...), a.Data, v.Data), a, v)
	out.backward = func() {
		accumulate(a, out.Grad)
		if v.requiresGrad {
			accumTemp(v, tensor.SumRowsInto(tensor.GetPooledDirty(v.Data.Len()), out.Grad))
		}
	}
	return out
}
