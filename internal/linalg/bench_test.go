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
