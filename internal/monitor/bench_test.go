package monitor

import (
	"testing"

	"netmax/internal/simnet"
)

// benchMonitor returns a monitor over the paper cluster's 8 workers with
// every link observed at time 0 (1 s within a machine, 4 s across) and
// its first policy generated, so later calls see a covered, live group.
func benchMonitor(b *testing.B) *Monitor {
	topo := simnet.PaperCluster(8)
	mo := New(Config{Adj: topo.Adj, Alpha: 0.1, Period: 10})
	for i := 0; i < topo.M; i++ {
		for j := 0; j < topo.M; j++ {
			secs := 4.0
			if topo.Machine[i] == topo.Machine[j] {
				secs = 1
			}
			mo.ObserveAt(i, j, secs, 0)
		}
	}
	if _, ok := mo.MaybeRegenerate(0); !ok {
		b.Fatal("no first policy")
	}
	return mo
}

// BenchmarkObserveAt times the engine's per-pull report of a link time at
// N = 8, cycling over the 56 links.
func BenchmarkObserveAt(b *testing.B) {
	mo := benchMonitor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i := k % 8
		j := (i + 1 + (k/8)%7) % 8
		mo.ObserveAt(i, j, 2, 1)
	}
}

// BenchmarkMaybeRegenerate times MaybeRegenerate at N = 8: "not-due" is
// the engine's per-event call while the period has not elapsed (the
// allocation-free fast path), and "due" a regeneration at each period
// boundary, every worker heard from there first so none is evicted.
func BenchmarkMaybeRegenerate(b *testing.B) {
	b.Run("not-due", func(b *testing.B) {
		mo := benchMonitor(b)
		b.ReportAllocs()
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			if _, ok := mo.MaybeRegenerate(5); ok {
				b.Fatal("regenerated before the period elapsed")
			}
		}
	})
	b.Run("due", func(b *testing.B) {
		mo := benchMonitor(b)
		b.ReportAllocs()
		b.ResetTimer()
		for k := 1; k <= b.N; k++ {
			now := float64(k) * mo.cfg.Period
			for i := 0; i < mo.m; i++ {
				mo.Heartbeat(i, now)
			}
			if _, ok := mo.MaybeRegenerate(now); !ok {
				b.Fatal("no regeneration at the period boundary")
			}
		}
	})
}
