package autograd_test

import (
	"math"
	"math/rand"
	"testing"

	"netmax/internal/autograd"
	"netmax/internal/nn"
	"netmax/internal/tensor"
)

// composedLinear is an nn.Linear run as the two-node oracle: a matmul
// node, then a row-vector add node.
type composedLinear struct{ *nn.Linear }

func (l composedLinear) Forward(x *autograd.Value) *autograd.Value {
	return autograd.AddRowVector(autograd.MatMul(x, l.W), l.B)
}

// mlpPair builds the MLP widths[0] → … → widths[last], ReLU between
// layers, twice from one seed: from fused Linear layers and from the
// composed oracle.
func mlpPair(seed int64, widths []int) (fused, composed *nn.Model) {
	build := func(oracle bool) *nn.Model {
		rng := rand.New(rand.NewSource(seed))
		var layers []nn.Layer
		for i := 0; i+1 < len(widths); i++ {
			lin := nn.NewLinear(rng, widths[i], widths[i+1])
			var l nn.Layer = lin
			if oracle {
				l = composedLinear{lin}
			}
			if i > 0 {
				layers = append(layers, nn.ReLU{})
			}
			layers = append(layers, l)
		}
		return nn.NewModel(layers...)
	}
	return build(false), build(true)
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLinearMatchesComposition trains the same MLP through the fused
// Linear node and through the matmul-plus-add oracle, on the paper's
// shapes (batch 16, 24 → 40 → 10) and on random ones, and requires every
// bit to agree. The three passes reach each leaf gradient by all three
// routes: stored into a new tensor, added onto the previous pass's, and
// stored over the zeros ZeroGrad left.
func TestLinearMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type shape struct {
		batch  int
		widths []int
	}
	shapes := []shape{{16, []int{24, 40, 10}}}
	for len(shapes) < 25 {
		widths := make([]int, 2+rng.Intn(3))
		for i := range widths {
			widths[i] = 1 + rng.Intn(30)
		}
		widths[len(widths)-1]++ // at least two classes
		shapes = append(shapes, shape{1 + rng.Intn(20), widths})
	}
	for n, s := range shapes {
		fused, composed := mlpPair(int64(n), s.widths)
		classes := s.widths[len(s.widths)-1]
		x := tensor.Randn(rng, 1, s.batch, s.widths[0])
		labels := make([]int, s.batch)
		for i := range labels {
			labels[i] = rng.Intn(classes)
		}
		for pass, zero := range []bool{false, false, true} {
			if zero {
				fused.ZeroGrad()
				composed.ZeroGrad()
			}
			lf, lc := fused.Loss(x, labels), composed.Loss(x, labels)
			autograd.Backward(lf)
			autograd.Backward(lc)
			if !sameFloat(lf.Item(), lc.Item()) {
				t.Fatalf("%v pass %d: loss %v, oracle %v", s, pass, lf.Item(), lc.Item())
			}
			gf := fused.GradVector(make([]float64, fused.VectorLen()))
			gc := composed.GradVector(make([]float64, composed.VectorLen()))
			for i := range gf {
				if !sameFloat(gf[i], gc[i]) {
					t.Fatalf("%v pass %d: gradient[%d] = %v, oracle %v", s, pass, i, gf[i], gc[i])
				}
			}
		}
		lf, af := fused.Evaluate(x, labels)
		lc, ac := composed.Evaluate(x, labels)
		if !sameFloat(lf, lc) || !sameFloat(af, ac) {
			t.Fatalf("%v: Evaluate = (%v, %v), oracle (%v, %v)", s, lf, af, lc, ac)
		}
	}
}
