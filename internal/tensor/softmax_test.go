package tensor

import (
	"math/rand"
	"testing"
)

// plainSoftmax is the reference the Softmax kernels are checked against:
// for each n-wide row of logits, the maximum by if v > m { m = v } from
// the first entry, Exp of each entry less it, their sum from +0 in column
// order, and each probability as one division. It returns the
// probabilities and the cross-entropy gradient that Softmax.GradInto
// writes for labels and scale.
func plainSoftmax(logits []float64, n int, labels []int, scale float64) (probs, grad []float64) {
	probs, grad = make([]float64, len(logits)), make([]float64, len(logits))
	for i, y := range labels {
		row, prow := logits[i*n:(i+1)*n], probs[i*n:(i+1)*n]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range row {
			prow[j] = Exp(v - maxv)
			sum += prow[j]
		}
		for j := range prow {
			prow[j] /= sum
			grad[i*n+j] = float64(prow[j] * scale)
		}
		grad[i*n+y] -= scale
	}
	return probs, grad
}

// checkSoftmax runs Softmax on every kernel and fails unless each
// probability and the gradient equal plainSoftmax's bit for bit (any NaN
// matching any NaN, as in FuzzMatMul), and GradInto writes nothing past
// its destination.
func checkSoftmax(t *testing.T, logits []float64, m, n int, labels []int, scale float64) {
	t.Helper()
	probs, grad := plainSoftmax(logits, n, labels, scale)
	for _, kern := range elementwiseKernels() {
		withKernel(kern, func() {
			var s Softmax
			// A larger batch first, so that the buffers hold stale values.
			s.Run(Randn(rand.New(rand.NewSource(1)), 1, m+5, n))
			s.Run(FromSlice(logits, m, n))
			got := New(m, n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					got.Data[i*n+j] = s.Prob(i, j)
				}
			}
			if !sameBits(got, FromSlice(probs, m, n)) {
				t.Fatalf("%dx%d probabilities on %v: %v, plain loop %v (logits %v)", m, n, kern, got.Data, probs, logits)
			}
			g := guarded(make([]float64, m*n), 1)
			s.GradInto(FromSlice(g.op, m, n), labels, scale)
			if !g.intact() {
				t.Fatalf("%dx%d gradient on %v wrote outside its destination", m, n, kern)
			}
			if !sameBits(FromSlice(g.op, m, n), FromSlice(grad, m, n)) {
				t.Fatalf("%dx%d gradient on %v: %v, plain loop %v (logits %v labels %v scale %v)",
					m, n, kern, g.op, grad, logits, labels, scale)
			}
		})
	}
}

// FuzzSoftmax checks Softmax's probabilities and gradient, on the Go loop
// and the assembly, against plainSoftmax. The first two bytes give m ≤ 13
// rows, so every count of rows past the last group of four follows every
// number of groups, and n ≤ 12 columns; the third the scale. The further
// bytes, repeated as in FuzzMatMul, are the logits and then the labels, so
// NaN, the infinities, signed zeros, subnormals and logits far beyond
// Exp's range all reach the row maximum, the shift and the sum.
func FuzzSoftmax(f *testing.F) {
	f.Add([]byte{16, 9, 140, 10, 20, 30, 200, 250, 0, 1, 2, 3})
	f.Add([]byte{7, 2, 136, 13, 11, 12, 0, 1, 9, 10, 14, 15})         // NaN, ±Inf, ±0, MaxFloat64, 1e300
	f.Add([]byte{5, 0, 144, 1, 0, 1, 0})                              // signed zeros: the maximum keeps the first
	f.Add([]byte{13, 11, 200, 6, 7, 8, 15, 14, 160, 100, 2, 3, 4, 5}) // subnormals beside huge logits
	f.Add([]byte{4, 3, 13, 13, 150, 12})                              // a NaN scale; a NaN in column 0
	f.Add([]byte{0, 5, 140})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, n := int(data[0]%14), 1+int(data[1]%12)
		scale := fuzzValue(data[2])
		vals, next := data[3:], 0
		value := func() byte {
			if len(vals) == 0 {
				return 0
			}
			v := vals[next%len(vals)]
			next++
			return v
		}
		logits := make([]float64, m*n)
		for i := range logits {
			logits[i] = fuzzValue(value())
		}
		labels := make([]int, m)
		for i := range labels {
			labels[i] = int(value()) % n
		}
		checkSoftmax(t, logits, m, n, labels, scale)
	})
}

// TestSoftmaxMatchesPlainLoopOnTrainingShapes checks the shapes the model
// runs, a 16-row training batch and a 64-row eval block of 10 classes and
// a 100-class block, on the spread of logits a trained top layer gives.
func TestSoftmaxMatchesPlainLoopOnTrainingShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, s := range [][2]int{{16, 10}, {64, 10}, {17, 100}, {3, 10}} {
		m, n := s[0], s[1]
		labels := make([]int, m)
		for i := range labels {
			labels[i] = rng.Intn(n)
		}
		checkSoftmax(t, Randn(rng, 4, m, n).Data, m, n, labels, 1/float64(m))
	}
}
