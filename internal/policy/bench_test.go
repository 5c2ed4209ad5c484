package policy

import (
	"fmt"
	"testing"

	"netmax/internal/simnet"
)

// BenchmarkGenerate measures one full Algorithm 3 search (K = R = 10) on a
// fully connected graph with heterogeneous link times, as a function of N.
func BenchmarkGenerate(b *testing.B) {
	for _, m := range []int{8, 16, 32, 64} {
		in := Input{Times: hetTimes(m, 1), Adj: simnet.FullyConnected(m), Alpha: 0.1}
		b.Run(fmt.Sprintf("N=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
