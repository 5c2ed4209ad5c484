package monitor

import (
	"math"
	"testing"

	"netmax/internal/simnet"
)

func TestNoRegenerationWithoutCoverage(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(4), Alpha: 0.1, Period: 10, StalePeriods: DefaultStalePeriods})
	if _, ok := mo.MaybeRegenerate(0); ok {
		t.Fatal("regenerated with no observations")
	}
	// Partial coverage: only node 0 reported.
	mo.ObserveAt(0, 1, 2.0, 0)
	if _, ok := mo.MaybeRegenerate(1); ok {
		t.Fatal("regenerated before every worker reported")
	}
}

func TestRegeneratesOnceCovered(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(4), Alpha: 0.1, Period: 10, StalePeriods: DefaultStalePeriods})
	fullTimesAt(mo, 4, 2.0, 0)
	pol, ok := mo.MaybeRegenerate(0)
	if !ok {
		t.Fatal("expected regeneration")
	}
	if len(pol.P) != 4 {
		t.Fatalf("policy size %d", len(pol.P))
	}
	if mo.Regenerations() != 1 {
		t.Fatalf("Regenerations = %d", mo.Regenerations())
	}
}

func TestPeriodGate(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(4), Alpha: 0.1, Period: 10, StalePeriods: DefaultStalePeriods})
	fullTimesAt(mo, 4, 2.0, 0)
	if _, ok := mo.MaybeRegenerate(0); !ok {
		t.Fatal("first regeneration blocked")
	}
	if _, ok := mo.MaybeRegenerate(5); ok {
		t.Fatal("regenerated before period elapsed")
	}
	if _, ok := mo.MaybeRegenerate(10); !ok {
		t.Fatal("regeneration due at period boundary blocked")
	}
	if mo.Regenerations() != 2 {
		t.Fatalf("Regenerations = %d", mo.Regenerations())
	}
}

func TestTimesFillsGapsPessimistically(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(3), Alpha: 0.1, Period: 10, StalePeriods: DefaultStalePeriods})
	mo.ObserveAt(0, 1, 1.0, 0)
	mo.ObserveAt(1, 0, 1.0, 0)
	mo.ObserveAt(2, 0, 9.0, 0)
	times := mo.Times()
	// Unobserved edges take the max observed time (9).
	if times[0][2] != 9 || times[1][2] != 9 {
		t.Fatalf("gap fill wrong: %v", times)
	}
	if times[0][1] != 1 {
		t.Fatalf("observed value overwritten: %v", times)
	}
	if times[0][0] != 0 {
		t.Fatal("diagonal should stay zero")
	}
}

func TestObserveSelfIgnored(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(2), Alpha: 0.1, Period: 10, StalePeriods: DefaultStalePeriods})
	mo.ObserveAt(1, 1, 5, 0)
	if mo.ema[1][1] != 0 {
		t.Fatal("self observation stored")
	}
}

func TestAdaptsToChangedTimes(t *testing.T) {
	// After link (0,1) degrades, the regenerated policy should shift mass
	// away from it.
	mo := New(Config{Adj: simnet.FullyConnected(4), Alpha: 0.1, Period: 1, StalePeriods: DefaultStalePeriods})
	fullTimesAt(mo, 4, 1.0, 0)
	pol1, ok := mo.MaybeRegenerate(0)
	if !ok {
		t.Fatal("first regeneration failed")
	}
	mo.ObserveAt(0, 1, 50, 0)
	mo.ObserveAt(1, 0, 50, 0)
	pol2, ok := mo.MaybeRegenerate(2)
	if !ok {
		t.Fatal("second regeneration failed")
	}
	if pol2.P[0][1] >= pol1.P[0][1] {
		t.Fatalf("policy did not shift away from degraded link: %v -> %v", pol1.P[0][1], pol2.P[0][1])
	}
}

func TestObserveRejectsOutOfRangeIndices(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(3), Alpha: 0.1, Period: 10, StalePeriods: DefaultStalePeriods})
	// Wire-supplied indices must never panic or corrupt state.
	mo.ObserveAt(7, 1, 2.0, 0)
	mo.ObserveAt(0, -1, 2.0, 0)
	for _, row := range mo.Times() {
		for _, v := range row {
			if v != 0 {
				t.Fatalf("out-of-range reports reached the time matrix: %v", mo.Times())
			}
		}
	}
}

// fullTimesAt reports every link at a given timestamp so liveness tracking
// sees fresh rows.
func fullTimesAt(mo *Monitor, m int, v, now float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				mo.ObserveAt(i, j, v, now)
			}
		}
	}
}

// TestStaleRowEviction is the regression test for the corpse-routing bug: a
// worker that stops reporting kept its last (attractive) EMA row forever
// and the policy kept routing pulls at it. With StalePeriods set, the row
// is evicted and regenerated policies stop selecting the dead worker.
func TestStaleRowEviction(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(4), Alpha: 0.1, Period: 10, StalePeriods: 2})
	fullTimesAt(mo, 4, 1.0, 0)
	// Worker 3 has the fastest links of all — the attractive corpse.
	mo.ObserveAt(3, 0, 0.1, 0)
	pol1, ok := mo.MaybeRegenerate(0)
	if !ok {
		t.Fatal("first regeneration failed")
	}
	if pol1.P[0][3] == 0 {
		t.Fatal("live worker 3 should receive pulls before failing")
	}
	// Everyone but worker 3 keeps reporting for three periods.
	for _, now := range []float64{10, 20, 30} {
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				if i != j {
					mo.ObserveAt(i, j, 1.0, now)
				}
			}
		}
		mo.MaybeRegenerate(now)
	}
	alive := mo.LiveWorkers(30)
	if alive[3] {
		t.Fatal("worker 3 silent for 3 periods (k=2) but still considered live")
	}
	if alive[0] != true || alive[1] != true || alive[2] != true {
		t.Fatalf("reporting workers evicted: %v", alive)
	}
	pol2, ok := mo.MaybeRegenerate(31)
	if !ok {
		// The eviction regeneration may already have happened at t=30.
		pol2, ok = mo.MaybeRegenerate(40)
		if !ok {
			t.Fatal("no regeneration after eviction")
		}
	}
	for i := 0; i < 3; i++ {
		if pol2.P[i][3] != 0 {
			t.Fatalf("policy still routes worker %d at the dead worker: %v", i, pol2.P[i])
		}
	}
	if pol2.P[3][3] != 1 {
		t.Fatalf("dead row not pinned to self: %v", pol2.P[3])
	}
	if mo.Evictions() == 0 {
		t.Fatal("eviction not counted")
	}
	// Worker 3 resumes reporting: re-admitted on the next regeneration.
	for j := 0; j < 4; j++ {
		if j != 3 {
			mo.ObserveAt(3, j, 1.0, 41)
		}
	}
	pol3, ok := mo.MaybeRegenerate(41)
	if !ok {
		t.Fatal("membership change (re-admission) did not force regeneration")
	}
	if pol3.P[0][3] == 0 {
		t.Fatalf("re-admitted worker receives no pulls: %v", pol3.P[0])
	}
}

// TestStaleEvictionDefaultsToThreePeriods checks the window every run
// gets unless it sets one (core.Options.Resolved's DefaultStalePeriods,
// 3): a silent worker is evicted once that many periods have passed since
// it was last heard from, and not before.
func TestStaleEvictionDefaultsToThreePeriods(t *testing.T) {
	const period = 10.0
	if DefaultStalePeriods != 3 {
		t.Fatalf("default window %d periods, want 3", DefaultStalePeriods)
	}
	mo := New(Config{Adj: simnet.FullyConnected(3), Alpha: 0.1, Period: period, StalePeriods: DefaultStalePeriods})
	fullTimesAt(mo, 3, 1.0, 0)
	if _, ok := mo.MaybeRegenerate(0); !ok {
		t.Fatal("first regeneration failed")
	}
	// Workers 0 and 1 heartbeat every period; worker 2 falls silent at 0.
	window := DefaultStalePeriods * period
	for now := period; now <= window; now += period {
		mo.Heartbeat(0, now)
		mo.Heartbeat(1, now)
		mo.MaybeRegenerate(now)
	}
	if alive := mo.LiveWorkers(window); !alive[2] || mo.Evictions() != 0 {
		t.Fatalf("worker 2 evicted %d periods after its last report, inside the %d-period window: %v, %d evictions",
			DefaultStalePeriods, DefaultStalePeriods, alive, mo.Evictions())
	}
	mo.Heartbeat(0, window+1)
	mo.Heartbeat(1, window+1)
	if _, ok := mo.MaybeRegenerate(window + 1); !ok {
		t.Fatal("the eviction did not force a regeneration")
	}
	if alive := mo.LiveWorkers(window + 1); alive[2] || !alive[0] || !alive[1] || mo.Evictions() != 1 {
		t.Fatalf("one second past the window: liveness %v, %d evictions; want worker 2 alone evicted once", alive, mo.Evictions())
	}
}

// TestSetLivenessForcesRegeneration verifies the fast membership path: a
// SetLiveness change re-solves the row LPs immediately, bypassing the
// period gate, and re-admission restores routing.
func TestSetLivenessForcesRegeneration(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(4), Alpha: 0.1, Period: 100, StalePeriods: DefaultStalePeriods})
	fullTimesAt(mo, 4, 1.0, 0)
	if _, ok := mo.MaybeRegenerate(0); !ok {
		t.Fatal("first regeneration failed")
	}
	// Within the period: no regeneration without membership change.
	if _, ok := mo.MaybeRegenerate(5); ok {
		t.Fatal("regenerated inside the period without membership change")
	}
	mo.SetLiveness([]bool{true, false, true, true}, 6)
	pol, ok := mo.MaybeRegenerate(6)
	if !ok {
		t.Fatal("membership change did not bypass the period gate")
	}
	if pol.P[0][1] != 0 || pol.P[2][1] != 0 || pol.P[1][1] != 1 {
		t.Fatalf("policy still routes at the down worker: %v", pol.P)
	}
	// Re-admit: forced again, routing restored. No fresh report is needed
	// first — coverage keys on ever-reported, and the evicted row is
	// gap-filled pessimistically until new measurements arrive; requiring
	// a report here would deadlock (the pinned-to-self policy row gives
	// the rejoined worker nothing to report about).
	mo.SetLiveness([]bool{true, true, true, true}, 7)
	pol2, ok := mo.MaybeRegenerate(7)
	if !ok {
		t.Fatal("re-admission did not force regeneration")
	}
	if pol2.P[0][1] == 0 {
		t.Fatalf("re-admitted worker receives no pulls: %v", pol2.P[0])
	}
}

func TestObserveRejectsNonFiniteTimes(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(2), Alpha: 0.1, Period: 10, StalePeriods: DefaultStalePeriods})
	mo.ObserveAt(0, 1, math.NaN(), 0)
	mo.ObserveAt(0, 1, math.Inf(1), 0)
	mo.ObserveAt(0, 1, -3, 0)
	mo.ObserveAt(0, 1, 0, 0)
	if mo.ema[0][1] != 0 {
		t.Fatalf("poisonous observation stored: %v", mo.ema[0][1])
	}
	mo.ObserveAt(0, 1, 2.5, 0)
	if mo.ema[0][1] != 2.5 {
		t.Fatal("valid observation rejected")
	}
}

// TestNewPanicsOnUnresolvedWindow pins that New takes a resolved window:
// DefaultStalePeriods is applied only by core.Options.Resolved, so a
// window below 1 is a caller that skipped it.
func TestNewPanicsOnUnresolvedWindow(t *testing.T) {
	for _, stale := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted a stale window of %d periods", stale)
				}
			}()
			New(Config{Adj: simnet.FullyConnected(3), Alpha: 0.1, Period: 10, StalePeriods: stale})
		}()
	}
}
