package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchMatMul(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, n, n)
	y := Randn(rng, 1, n, n)
	dst := New(n, n)
	b.ReportAllocs()
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMulInto(dst, x, y)
	}
}

func BenchmarkMatMul64(b *testing.B)   { benchMatMul(b, 64) }
func BenchmarkMatMul256(b *testing.B)  { benchMatMul(b, 256) }
func BenchmarkMatMul1024(b *testing.B) { benchMatMul(b, 1024) }

// BenchmarkMatMulModelShapes times the five products one SimResNet18
// training step takes (batch 16, widths 24 → 40 → 10), each in the form
// internal/nn calls it, and then the same step's three layer forms, which
// carry gemm's epilogue: the hidden layer with its bias and ReLU, the top
// layer with its bias, and the input gradient of the top layer (its
// weight transposed, then the product gated by the hidden layer's output).
// The plain products are the forward products, that input gradient
// without its gate, and the two weight gradients. The next two are the
// forward products of the Tracker's final-accuracy pass over the
// 500-sample CIFAR10 test split, and the last two SimMobileNet's forward
// products (widths 16 → 18 → 10), which the live benchmark runs and which
// reach the AVX-512 kernel's 18-column block and its four-row 10-column
// block. Operands that are ReLU outputs or ReLU-masked gradients in
// training are ReLU-sparse here too. Each runs on every gemm kernel this
// machine has, as a sub-benchmark named after the kernel.
func BenchmarkMatMulModelShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, wb1, wb2 := Randn(rng, 1, 16, 24), Randn(rng, 1, 25, 40), Randn(rng, 1, 41, 10)
	w1, w2 := FromSlice(wb1.Data[:24*40], 24, 40), FromSlice(wb2.Data[:40*10], 40, 10)
	h := Randn(rng, 1, 16, 40)
	dOut2, dOut1 := Randn(rng, 1, 16, 10), Randn(rng, 1, 16, 40)
	evalX, evalH := Randn(rng, 1, 500, 24), Randn(rng, 1, 500, 40)
	mx, mw1, mw2, mh := Randn(rng, 1, 16, 16), Randn(rng, 1, 16, 18), Randn(rng, 1, 18, 10), Randn(rng, 1, 16, 18)
	for _, t := range []*Tensor{h, dOut1, evalH, mh} {
		reluGo(t.Data, t.Data)
	}
	out1, out2, w2t, dA := New(16, 40), New(16, 10), New(10, 40), New(16, 40)
	dW1, dW2, eval1, eval2 := New(24, 40), New(40, 10), New(500, 40), New(500, 10)
	mOut1, mOut2 := New(16, 18), New(16, 10)
	for _, c := range []struct {
		name    string
		product func()
	}{
		{"fwd-16x24x40", func() { matMulInto(out1, x, w1) }},
		{"fwd-16x40x10", func() { matMulInto(out2, h, w2) }},
		{"dA-16x10x40T", func() { matMulInto(dA, dOut2, TransposeInto(w2t, w2)) }},
		{"dW-24x16x40", func() { MatMulTransAInto(dW1, x, dOut1) }},
		{"dW-40x16x10", func() { MatMulTransAInto(dW2, h, dOut2) }},
		{"hidden-16x24x40+bias+relu", func() { AffineInto(out1, x, wb1, true) }},
		{"top-16x40x10+bias", func() { AffineInto(out2, h, wb2, false) }},
		{"dx-16x10x40T+gate", func() { MatMulGateInto(dA, dOut2, TransposeInto(w2t, w2), h) }},
		{"eval-500x24x40", func() { matMulInto(eval1, evalX, w1) }},
		{"eval-500x40x10", func() { matMulInto(eval2, evalH, w2) }},
		{"mobilenet-16x16x18", func() { matMulInto(mOut1, mx, mw1) }},
		{"mobilenet-16x18x10", func() { matMulInto(mOut2, mh, mw2) }},
	} {
		for _, kern := range kernels() {
			b.Run(c.name+"/"+kern.name, func(b *testing.B) {
				withKernel(kern, func() {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						c.product()
					}
				})
			})
		}
	}
}

// simResNet18Passes returns the passes of one SimResNet18 iteration at
// its sizes, by name, that are not products alone: the SGD step over its
// 1,410 parameters (widths 24 → 40 → 10), the blend toward a peer's
// vector, and the hidden layer's forward on a 16-row batch, whose bias
// and ReLU ride in its product's epilogue.
func simResNet18Passes() map[string]func() {
	const params = (24+1)*40 + (40+1)*10
	rng := rand.New(rand.NewSource(1))
	p, g, peer := Randn(rng, 0.1, 1, params).Data, Randn(rng, 0.01, 1, params).Data, Randn(rng, 0.1, 1, params).Data
	vel := make([]float64, params)
	x, wb, out := Randn(rng, 1, 16, 24), Randn(rng, 0.1, 25, 40), New(16, 40)
	return map[string]func(){
		"SGDStep":     func() { SGDStep(p, g, vel, 0.05, 0.9, 1e-4) },
		"Blend":       func() { Blend(p, peer, 0.25) },
		"HiddenLayer": func() { AffineInto(out, x, wb, true) },
	}
}

// benchPass times one of simResNet18Passes on each kernel this machine
// runs: "go" is the portable loop, "avx2" the assembly.
func benchPass(b *testing.B, name string) {
	for _, kern := range elementwiseKernels() {
		b.Run(kern.name, func(b *testing.B) {
			run := simResNet18Passes()[name]
			withKernel(kern, func() {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		})
	}
}

func BenchmarkSGDStep(b *testing.B) { benchPass(b, "SGDStep") }
func BenchmarkBlend(b *testing.B)   { benchPass(b, "Blend") }

func TestSimResNet18PassesAllocateNothing(t *testing.T) {
	for name, run := range simResNet18Passes() {
		for _, kern := range kernels() {
			withKernel(kern, func() {
				if n := testing.AllocsPerRun(10, run); n != 0 {
					t.Errorf("%s on %v allocates %v times, want 0", name, kern, n)
				}
			})
		}
	}
}

// BenchmarkTranspose times Backward's weight transpose on each kernel, at
// the paper MLP's top layer (40×10) and at the largest weight the quick
// suite transposes (VGG19's 72×100).
func BenchmarkTranspose(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{40, 10}, {72, 100}} {
		w, wt := Randn(rng, 1, shape[0], shape[1]), New(shape[1], shape[0])
		for _, kern := range elementwiseKernels() {
			b.Run(fmt.Sprintf("%dx%d/%v", shape[0], shape[1], kern), func(b *testing.B) {
				withKernel(kern, func() {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						TransposeInto(wt, w)
					}
				})
			})
		}
	}
}
