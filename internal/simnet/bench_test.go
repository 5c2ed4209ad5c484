package simnet

import (
	"fmt"
	"testing"
)

// BenchmarkIterationTime times one IterationTime call on the paper
// cluster's heterogeneous network, the engine's per-pull network query, at
// N = 8 and 16. The calls sweep the virtual time over 100 slow-link
// periods, so each one looks up the slowdown in force in the drawn
// schedule; the schedule is drawn before the timer starts.
func BenchmarkIterationTime(b *testing.B) {
	const (
		period  = SlowLinkPeriod / TimeScale
		horizon = 100 * period
		step    = period / 7 // several calls per period, in every period
		bytes   = 4 << 20    // a 1M-parameter float32 model
	)
	for _, n := range []int{8, 16} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			net := NewHeterogeneousPeriod(PaperCluster(n), 1, horizon, period)
			net.IterationTime(0, 1, bytes, 0.1, horizon, true)
			b.ReportAllocs()
			b.ResetTimer()
			now, i, j := 0.0, 0, 1
			for k := 0; k < b.N; k++ {
				net.IterationTime(i, j, bytes, 0.1, now, true)
				if now += step; now >= horizon {
					now = 0
				}
				if j++; j == n {
					i, j = (i+1)%n, 0
				}
				if j == i {
					j = (j + 1) % n
				}
			}
		})
	}
}
