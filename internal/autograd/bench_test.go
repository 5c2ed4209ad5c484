package autograd_test

import (
	"math/rand"
	"testing"

	"netmax/internal/autograd"
	"netmax/internal/nn"
	"netmax/internal/tensor"
)

// BenchmarkResNet18ForwardBackward measures one full training step's graph
// work — forward pass, reverse sweep and gradient accumulation — of the
// SimResNet18 MLP stand-in on a paper-sized batch. allocs/op is the headline
// number: the buffer-pooled autograd arena exists to drive it toward zero.
func BenchmarkResNet18ForwardBackward(b *testing.B) {
	const (
		batch   = 16
		dim     = 24 // SynthCIFAR10 feature dimensionality
		classes = 10
	)
	model := nn.SimResNet18.Build(1, dim, classes)
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 1, batch, dim)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.ZeroGrad()
		loss := model.Loss(x, labels)
		autograd.Backward(loss)
	}
}

// BenchmarkResNet18ForwardOnly isolates the evaluation path (forward pass,
// then the graph's buffers go back to the arena; no gradient buffers) for
// comparison with the training step.
func BenchmarkResNet18ForwardOnly(b *testing.B) {
	const (
		batch   = 16
		dim     = 24
		classes = 10
	)
	model := nn.SimResNet18.Build(1, dim, classes)
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 1, batch, dim)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Evaluate(x, labels)
	}
}
