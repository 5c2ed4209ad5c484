package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"netmax/internal/tensor"
)

// resNet18Batch returns the SimResNet18 MLP stand-in and one paper-sized
// batch (16 rows of SynthCIFAR10's 24 features, 10 classes).
func resNet18Batch() (*Model, *tensor.Tensor, []int) {
	const (
		batch   = 16
		dim     = 24
		classes = 10
	)
	m := SimResNet18.Build(1, dim, classes)
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 1, batch, dim)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return m, x, labels
}

// stepBlendFixture returns the SimResNet18 MLP stand-in with gradients
// from one paper-sized batch, a warm optimizer (its velocity allocated)
// and a peer vector to blend toward: the optimizer layer of one NetMax
// iteration, SGD step then consensus blend.
func stepBlendFixture() (*Model, *SGD, []float64) {
	m, x, labels := resNet18Batch()
	peer := vector(SimResNet18.Build(2, x.Cols, 10))
	m.Loss(x, labels).Backward()
	opt := NewSGD(0.05)
	opt.Step(m)
	return m, opt, peer
}

// BenchmarkSGDStepBlend measures one optimizer step plus one blend over
// the flat parameter vector, the per-iteration work after the gradient.
func BenchmarkSGDStepBlend(b *testing.B) {
	m, opt, peer := stepBlendFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(m)
		m.BlendVector(0.25, peer)
	}
}

// BenchmarkResNet18ForwardBackward measures one training step's gradient
// work, the forward and the backward pass, of the SimResNet18 MLP
// stand-in on a paper-sized batch.
func BenchmarkResNet18ForwardBackward(b *testing.B) {
	m, x, labels := resNet18Batch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Loss(x, labels).Backward()
	}
}

// BenchmarkResNet18ForwardOnly isolates the evaluation path, one forward
// pass, for comparison with the training step.
func BenchmarkResNet18ForwardOnly(b *testing.B) {
	m, x, labels := resNet18Batch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Evaluate(x, labels)
	}
}

func TestSGDStepBlendAllocatesNothing(t *testing.T) {
	m, opt, peer := stepBlendFixture()
	if n := testing.AllocsPerRun(10, func() {
		opt.Step(m)
		m.BlendVector(0.25, peer)
	}); n != 0 {
		t.Fatalf("a warm SGD step plus blend allocates %v times, want 0", n)
	}
}

func TestTrainingStepAllocatesNothing(t *testing.T) {
	m, x, labels := resNet18Batch()
	opt := NewSGD(0.05)
	if n := testing.AllocsPerRun(10, func() {
		m.Loss(x, labels).Backward()
		opt.Step(m)
	}); n != 0 {
		t.Fatalf("a warm Loss + Backward + SGD step allocates %v times, want 0", n)
	}
}

// TestBuildingAllocatesPerModelNotPerLayer builds models of one to five
// layers: each costs the same four allocations (the model, its parameter
// and gradient vectors, its layer slice), because a layer holds its
// tensors by value.
func TestBuildingAllocatesPerModelNotPerLayer(t *testing.T) {
	for depth := 1; depth <= 5; depth++ {
		widths := make([]int, depth+1)
		for i := range widths {
			widths[i] = 8 + i
		}
		if n := testing.AllocsPerRun(10, func() { zeroModel(widths) }); n != 4 {
			t.Fatalf("a %d-layer model allocates %v times, want 4", depth, n)
		}
	}
}

// evalSet returns 500 rows of SynthCIFAR10's 24 features with labels
// below 10: the size of the Tracker's eval and test sets.
func evalSet() (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 1, 500, 24)
	labels := make([]int, 500)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	return x, labels
}

// TestEvaluateAllocatesNothing evaluates on a training batch and on the
// 500-row test split in turn, as the loss-curve tracker does, once both
// sizes have been seen, through Evaluate and each of its halves.
func TestEvaluateAllocatesNothing(t *testing.T) {
	m, x, labels := resNet18Batch()
	test, testLabels := evalSet()
	if n := testing.AllocsPerRun(10, func() { m.Evaluate(x, labels) }); n != 0 {
		t.Fatalf("a warm Evaluate allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		m.Evaluate(test, testLabels)
		m.EvalLoss(test, testLabels)
		m.Accuracy(test, testLabels)
		m.Evaluate(x, labels)
	}); n != 0 {
		t.Fatalf("warm evaluations on two batch sizes allocate %v times, want 0", n)
	}
}

// BenchmarkEvaluate, BenchmarkEvalLoss and BenchmarkAccuracy time the
// SimResNet18 stand-in's evaluations on a 500-row eval set: both halves
// (live's final report), the loss half (each point of the Tracker's loss
// curve) and the accuracy half (the Tracker's final test accuracy).
func BenchmarkEvaluate(b *testing.B) {
	benchEval(b, func(m *Model, x *tensor.Tensor, labels []int) { m.Evaluate(x, labels) })
}

func BenchmarkEvalLoss(b *testing.B) {
	benchEval(b, func(m *Model, x *tensor.Tensor, labels []int) { m.EvalLoss(x, labels) })
}

func BenchmarkAccuracy(b *testing.B) {
	benchEval(b, func(m *Model, x *tensor.Tensor, labels []int) { m.Accuracy(x, labels) })
}

func benchEval(b *testing.B, eval func(*Model, *tensor.Tensor, []int)) {
	m, _, _ := resNet18Batch()
	x, labels := evalSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval(m, x, labels)
	}
}

// softmaxFixture returns rows × 10 logits of the spread a trained top
// layer gives, their labels and a gradient buffer.
func softmaxFixture(rows int) (grad, logits *tensor.Tensor, labels []int) {
	rng := rand.New(rand.NewSource(4))
	logits = tensor.Randn(rng, 4, rows, 10)
	labels = make([]int, rows)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	return tensor.New(rows, 10), logits, labels
}

// softmaxPass runs the top layer's softmax as the model does: on a
// training batch it writes the cross-entropy gradient (Backward), on an
// eval block it sums the label's log probabilities (EvalLoss).
func softmaxPass(s *tensor.Softmax, grad, logits *tensor.Tensor, labels []int, train bool) {
	s.Run(logits)
	if train {
		s.GradInto(grad, labels, 1/float64(len(labels)))
		return
	}
	nll := 0.0
	for i, y := range labels {
		nll = subLogProb(nll, s.Prob(i, y))
	}
}

// BenchmarkSoftmax measures the top layer's softmax with its cross-entropy
// gradient on a training batch (16 rows of 10 classes) and with its loss
// on an eval set (400 rows).
func BenchmarkSoftmax(b *testing.B) {
	for _, rows := range []int{16, 400} {
		b.Run(fmt.Sprintf("%dx10", rows), func(b *testing.B) {
			var s tensor.Softmax
			grad, logits, labels := softmaxFixture(rows)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				softmaxPass(&s, grad, logits, labels, rows == 16)
			}
		})
	}
}

func TestSoftmaxAllocatesNothing(t *testing.T) {
	for _, rows := range []int{16, 400} {
		for _, train := range []bool{true, false} {
			var s tensor.Softmax
			grad, logits, labels := softmaxFixture(rows)
			softmaxPass(&s, grad, logits, labels, train)
			if n := testing.AllocsPerRun(10, func() { softmaxPass(&s, grad, logits, labels, train) }); n != 0 {
				t.Errorf("a warm softmax on %d×10 (training %v) allocates %v times, want 0", rows, train, n)
			}
		}
	}
}
