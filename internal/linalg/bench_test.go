package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSymmetricEigenvalues measures the full symmetric eigenvalue
// solve as a function of N.
func BenchmarkSymmetricEigenvalues(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		m := randomSymmetric(rand.New(rand.NewSource(1)), n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SymmetricEigenvalues(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLambda2Certificate measures the λ₂ certificate in its most
// expensive case, x just above λ₂: the factorization runs to the last
// pivot and proves nothing.
func BenchmarkLambda2Certificate(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		rng := rand.New(rand.NewSource(1))
		var m *Matrix
		var l2 float64
		for l2 <= 0 || l2 >= 0.99 { // a connected draw with λ₂ > 0
			m = randomDoublyStochastic(rng, n)
			var err error
			if l2, err = SecondLargestEigenvalue(m); err != nil {
				b.Fatal(err)
			}
		}
		work := make([]float64, n*n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if Lambda2Exceeds(m, l2+1e-3, work) {
					b.Fatal("proved λ₂ above λ₂")
				}
			}
		})
	}
}
