package nn

import (
	"math/rand"
	"testing"

	"netmax/internal/tensor"
)

// stepBlendFixture returns the SimResNet18 MLP stand-in with gradients
// from one paper-sized batch, a warm optimizer (its velocity allocated)
// and a peer vector to blend toward: the optimizer layer of one NetMax
// iteration, SGD step then consensus blend.
func stepBlendFixture() (*Model, *SGD, []float64) {
	const (
		batch   = 16
		dim     = 24 // SynthCIFAR10 feature dimensionality
		classes = 10
	)
	m := SimResNet18.Build(1, dim, classes)
	peer := SimResNet18.Build(2, dim, classes).Vector()
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 1, batch, dim)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	backwardScalar(m.Loss(x, labels))
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

func TestSGDStepBlendAllocatesNothing(t *testing.T) {
	m, opt, peer := stepBlendFixture()
	if n := testing.AllocsPerRun(10, func() {
		opt.Step(m)
		m.BlendVector(0.25, peer)
	}); n != 0 {
		t.Fatalf("a warm SGD step plus blend allocates %v times, want 0", n)
	}
}
