// Package monitor implements the Network Monitor of Algorithm 1.
//
// The Monitor is the only central component of NetMax, and deliberately a
// lightweight one: it never sees training data or model parameters — it
// collects the per-link EMA iteration times maintained by the workers
// (Algorithm 2's UPDATETIMEVECTOR), periodically regenerates the
// communication policy with Algorithm 3, and ships (P, ρ) back. The same
// monitor drives the AD-PSGD extension of Section III-D.
package monitor

import (
	"math"
	"sync"

	"netmax/internal/policy"
)

// Config holds the Monitor's tuning knobs.
type Config struct {
	// Adj is the communication graph.
	Adj [][]bool
	// Alpha is the workers' learning rate (needed for the Eq. 11 floors).
	Alpha float64
	// Period is Ts, the schedule period in (virtual) seconds. The paper
	// uses 2 minutes; shorter values react faster to link changes.
	Period float64
	// Rounds is Algorithm 3's grid size, used for both K and R (default
	// policy.DefaultRounds). Policies target Eq. 9's policy.DefaultEpsilon.
	Rounds int
	// AveragingBlend selects the Section III-D extension mode (fixed 1/2
	// averaging weight) when generating policies.
	AveragingBlend bool
	// StalePeriods is the liveness window in periods: a worker last heard
	// from (ObserveAt or Heartbeat) longer ago than StalePeriods*Period is
	// evicted — its EMA row is cleared and policies are regenerated over
	// the live subgraph only, so the policy stops routing pulls at a
	// corpse whose last (attractive) iteration time would otherwise live
	// forever. A value below 1 selects DefaultStalePeriods; eviction is
	// never off.
	StalePeriods int
}

// DefaultStalePeriods is the liveness window, in periods, of a Config that
// sets none. The engine stamps a worker at the end of every iteration and
// the live monitor at every collect the worker answers, so only a crashed
// or hung worker goes this long unheard.
const DefaultStalePeriods = 3

// Monitor tracks link statistics and regenerates communication policies.
type Monitor struct {
	mu   sync.Mutex
	cfg  Config
	m    int
	ema  [][]float64 // latest collected iteration-time matrix
	last float64     // virtual time of last regeneration
	ran  bool

	lastReport   []float64   // per-worker time it was last heard from
	everReported []bool      // per-worker: any report ever (coverage gate)
	membAlive    []bool      // membership-event liveness (SetLiveness)
	lastAlive    []bool      // liveness set of the last successful regeneration
	alive        []bool      // the liveness set of the regeneration under way
	times        [][]float64 // the matrix Times fills

	regenerations int // successful policy computations
	evictions     int // workers evicted for staleness
}

// New creates a Monitor. Period must be positive.
func New(cfg Config) *Monitor {
	if cfg.StalePeriods < 1 {
		cfg.StalePeriods = DefaultStalePeriods
	}
	m := len(cfg.Adj)
	ema := make([][]float64, m)
	for i := range ema {
		ema[i] = make([]float64, m)
	}
	times := make([][]float64, m)
	for i := range times {
		times[i] = make([]float64, m)
	}
	membAlive, lastAlive := make([]bool, m), make([]bool, m)
	for i := range lastAlive {
		membAlive[i], lastAlive[i] = true, true
	}
	return &Monitor{cfg: cfg, m: m, ema: ema, times: times,
		lastReport: make([]float64, m), everReported: make([]bool, m),
		membAlive: membAlive, lastAlive: lastAlive, alive: make([]bool, m)}
}

// ObserveAt ingests one measured iteration time for link (i, j), reported
// at (virtual or wall) time now. In the live runtime it arrives with the
// periodic collect, once per new observation of the link; in the
// simulator a worker reports each pull, stamped at its iteration's end.
// The worker-side EMA has already been applied, so the monitor just stores
// the latest value. The timestamp feeds liveness tracking as Heartbeat's
// does.
func (mo *Monitor) ObserveAt(i, j int, iterSecs, now float64) {
	// Times arrive over the wire: reject out-of-range indices and
	// non-finite or non-positive times, either of which would poison the
	// EMA matrix and every policy generated from it. (NaN fails the > 0
	// comparison.)
	if i == j || !mo.validLink(i, j) || !(iterSecs > 0) || math.IsInf(iterSecs, 1) {
		return
	}
	mo.mu.Lock()
	mo.ema[i][j] = iterSecs
	mo.everReported[i] = true
	mo.stamp(i, now)
	mo.mu.Unlock()
}

// Heartbeat records that worker i was heard from at time now, with or
// without a new link time: the live monitor calls it for every answered
// collect, the simulator for every iteration without a pull, stamped at
// its end. A worker whose heartbeats and reports stop arriving is evicted
// from policy generation after StalePeriods periods. Heartbeats do not
// count towards the coverage the first regeneration waits for.
func (mo *Monitor) Heartbeat(i int, now float64) {
	if !mo.validLink(i, i) {
		return
	}
	mo.mu.Lock()
	mo.stamp(i, now)
	mo.mu.Unlock()
}

// stamp advances worker i's last-heard time to now. Callers hold mo.mu.
func (mo *Monitor) stamp(i int, now float64) {
	if now > mo.lastReport[i] {
		mo.lastReport[i] = now
	}
}

// SetLiveness feeds membership knowledge from a faster detector — the
// engine's membership events, or a deployment's failure detector — into
// the monitor: workers marked false are excluded from policy generation
// immediately, without waiting for their reports to go stale. A liveness
// change forces the next MaybeRegenerate regardless of the period gate, so
// the row LPs are re-solved on every membership change.
func (mo *Monitor) SetLiveness(alive []bool, now float64) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	for i := 0; i < mo.m && i < len(alive); i++ {
		mo.membAlive[i] = alive[i]
		if alive[i] {
			// A re-admitted worker gets a fresh staleness grace period; its
			// old lastReport would otherwise evict it again instantly.
			mo.stamp(i, now)
		}
	}
}

// aliveAt reports the combined liveness of worker i at time now: live
// unless a membership event marked it down or its reports have gone stale.
// Callers hold mo.mu.
func (mo *Monitor) aliveAt(i int, now float64) bool {
	return mo.membAlive[i] && now-mo.lastReport[i] <= float64(mo.cfg.StalePeriods)*mo.cfg.Period
}

// liveness writes the combined liveness vector into alive and returns it.
// Callers hold mo.mu.
func (mo *Monitor) liveness(alive []bool, now float64) []bool {
	for i := range alive {
		alive[i] = mo.aliveAt(i, now)
	}
	return alive
}

// LiveWorkers returns the combined liveness vector at time now
// (observability, tests).
func (mo *Monitor) LiveWorkers(now float64) []bool {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.liveness(make([]bool, mo.m), now)
}

// Regenerations returns the number of successful policy computations
// (observability).
func (mo *Monitor) Regenerations() int {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.regenerations
}

// Evictions returns the number of workers evicted for staleness
// (observability).
func (mo *Monitor) Evictions() int {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.evictions
}

// validLink bounds-checks worker indices: reports arrive over the wire, so
// a malformed or hostile frame must not index outside the m x m matrices.
func (mo *Monitor) validLink(i, j int) bool {
	return i >= 0 && i < mo.m && j >= 0 && j < mo.m
}

// Times returns the current iteration-time matrix with gaps (never-observed
// links) filled pessimistically with the largest observed time, so that
// policy generation can run before full coverage. The matrix is the
// monitor's own: it stays valid until the next Times or MaybeRegenerate
// call, which overwrites it.
func (mo *Monitor) Times() [][]float64 {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	maxT := 0.0
	for i := range mo.ema {
		for j := range mo.ema[i] {
			if mo.ema[i][j] > maxT {
				maxT = mo.ema[i][j]
			}
		}
	}
	out := mo.times
	for i := range out {
		for j := range out[i] {
			v := mo.ema[i][j]
			if i != j && mo.cfg.Adj[i][j] && v == 0 {
				v = maxT
			}
			out[i][j] = v
		}
	}
	return out
}

// coverage reports whether every live worker has EVER reported a link
// time, so that the first regeneration does not act on a single skewed
// sample. Dead workers cannot report and must not block the live group's
// policy. The check deliberately uses the ever-reported flag rather than
// the current EMA row: eviction clears a worker's row, and a re-admitted
// worker whose fresh reports have not arrived yet must not freeze policy
// regeneration for the whole cluster — its cleared row is gap-filled
// pessimistically by Times until real measurements rebuild it. Callers
// hold mo.mu.
func (mo *Monitor) coverage(alive []bool) bool {
	for i, ok := range mo.everReported {
		if alive[i] && !ok {
			return false
		}
	}
	return true
}

// MaybeRegenerate runs Algorithm 1's periodic body: if a full period has
// elapsed since the last run (and any statistics exist), it recomputes the
// policy and returns it with ok=true. A membership change — a worker
// evicted for staleness, marked down via SetLiveness, or re-admitted —
// bypasses the period gate so the row LPs are re-solved immediately over
// the live subgraph. Otherwise ok=false. A regeneration works in buffers
// the monitor owns, so calls must not overlap each other or Times.
func (mo *Monitor) MaybeRegenerate(now float64) (*policy.Policy, bool) {
	mo.mu.Lock()
	// Allocation-free fast path: the engine calls this on every event, so
	// the liveness vector is only materialized once a regeneration is due.
	changed := false
	for i := 0; i < mo.m; i++ {
		if mo.aliveAt(i, now) != mo.lastAlive[i] {
			changed = true
			break
		}
	}
	if !(!mo.ran || now-mo.last >= mo.cfg.Period || changed) {
		mo.mu.Unlock()
		return nil, false
	}
	alive := mo.liveness(mo.alive, now)
	if !mo.coverage(alive) {
		mo.mu.Unlock()
		return nil, false
	}
	// Stale-row eviction: a newly dead worker's own measurements are
	// meaningless after it returns, so its EMA row is cleared; fresh
	// reports rebuild it on re-admission (gap-filled pessimistically by
	// Times until then).
	for i, ok := range alive {
		if !ok && mo.lastAlive[i] {
			for j := range mo.ema[i] {
				mo.ema[i][j] = 0
			}
			mo.evictions++
		}
	}
	mo.mu.Unlock()

	pol, err := policy.Generate(policy.Input{
		Times:          mo.Times(),
		Adj:            mo.cfg.Adj,
		Alpha:          mo.cfg.Alpha,
		Rounds:         mo.cfg.Rounds,
		AveragingBlend: mo.cfg.AveragingBlend,
		Alive:          alive,
	})
	mo.mu.Lock()
	mo.last = now
	mo.ran = true
	mo.lastAlive, mo.alive = alive, mo.lastAlive
	if err == nil {
		mo.regenerations++
	}
	mo.mu.Unlock()
	if err != nil {
		return nil, false
	}
	return pol, true
}
