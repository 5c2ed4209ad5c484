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
	peer := SimResNet18.Build(2, x.Cols(), 10).Vector()
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

// TestEvaluateAllocatesNothing evaluates on a training batch and on the
// 500-row test split in turn, as the loss-curve tracker does, once both
// sizes have been seen.
func TestEvaluateAllocatesNothing(t *testing.T) {
	m, x, labels := resNet18Batch()
	rng := rand.New(rand.NewSource(3))
	test := tensor.Randn(rng, 1, 500, x.Cols())
	testLabels := make([]int, 500)
	for i := range testLabels {
		testLabels[i] = rng.Intn(10)
	}
	if n := testing.AllocsPerRun(10, func() { m.Evaluate(x, labels) }); n != 0 {
		t.Fatalf("a warm Evaluate allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		m.Evaluate(test, testLabels)
		m.Evaluate(x, labels)
	}); n != 0 {
		t.Fatalf("warm Evaluates on two batch sizes allocate %v times, want 0", n)
	}
}

// softmaxFixture returns rows × 10 logits of the spread a trained top
// layer gives, their labels and a probabilities buffer.
func softmaxFixture(rows int) (probs, logits []float64, labels []int) {
	rng := rand.New(rand.NewSource(4))
	logits = tensor.Randn(rng, 4, rows, 10).Data
	labels = make([]int, rows)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	return make([]float64, len(logits)), logits, labels
}

// BenchmarkSoftmax measures the top layer's softmax and cross-entropy on a
// training batch (16 rows of 10 classes) and on an eval set (400 rows).
func BenchmarkSoftmax(b *testing.B) {
	for _, rows := range []int{16, 400} {
		b.Run(fmt.Sprintf("%dx10", rows), func(b *testing.B) {
			probs, logits, labels := softmaxFixture(rows)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				softmaxNLL(probs, logits, 10, labels, 0)
			}
		})
	}
}

func TestSoftmaxAllocatesNothing(t *testing.T) {
	for _, rows := range []int{16, 400} {
		probs, logits, labels := softmaxFixture(rows)
		if n := testing.AllocsPerRun(10, func() { softmaxNLL(probs, logits, 10, labels, 0) }); n != 0 {
			t.Errorf("softmax on %d×10 allocates %v times, want 0", rows, n)
		}
	}
}
