package live

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"netmax/internal/codec"
	"netmax/internal/core"
	"netmax/internal/data"
	"netmax/internal/monitor"
	"netmax/internal/nn"
	"netmax/internal/simnet"
	"netmax/internal/transport"
)

// TestLiveGroupSurvivesCrashRejoin injects a crash + rejoin through the
// churn schedule: the run must finish, record peer-down pulls (the failed
// neighbor was masked, not fatal), and still produce a finite consensus
// model with everyone else iterating.
func TestLiveGroupSurvivesCrashRejoin(t *testing.T) {
	// Slow iterations down to ~1ms so the wall-clock churn window overlaps
	// a substantial stretch of the run.
	hub := transport.NewLocalHub(func(i, j int) time.Duration { return time.Millisecond })
	defer hub.Close()
	cfg := liveConfig(4, 200)
	cfg.NetMax.TsSecs = 0.040
	cfg.NetMax.StalePeriods = 2
	cfg.PullTimeout = 200 * time.Millisecond
	cfg.Failures = simnet.NewFailureSchedule().Crash(2, 0.030, 0.150)
	stats := Run(context.Background(), cfg, hub)
	if stats.PeerDownErrors == 0 {
		t.Fatal("crash produced no ErrPeerDown pulls")
	}
	for i, c := range stats.IterationsPerWorker {
		if i != 2 && c != 200 {
			t.Fatalf("surviving worker %d did %d iterations, want 200", i, c)
		}
	}
	if stats.IterationsPerWorker[2] == 0 {
		t.Fatal("rejoining worker never iterated")
	}
	if !(stats.FinalLoss > 0) || stats.FinalAccuracy <= 0 {
		t.Fatalf("consensus model degenerate after churn: loss=%v acc=%v", stats.FinalLoss, stats.FinalAccuracy)
	}
	if stats.Evictions == 0 {
		t.Fatal("the crashed worker was never evicted")
	}
}

// TestLiveUniformGroupBuildsNoMonitor runs a uniform group through the
// crash and rejoin for which TestLiveGroupSurvivesCrashRejoin's adaptive
// group evicts a worker. The uniform group builds no Network Monitor, so
// it reports no policy and no eviction.
func TestLiveUniformGroupBuildsNoMonitor(t *testing.T) {
	hub := transport.NewLocalHub(func(i, j int) time.Duration { return time.Millisecond })
	defer hub.Close()
	cfg := liveConfig(4, 200)
	cfg.NetMax = core.Options{TsSecs: 0.040, StalePeriods: 2, UniformPolicy: true}
	cfg.PullTimeout = 200 * time.Millisecond
	cfg.Failures = simnet.NewFailureSchedule().Crash(2, 0.030, 0.150)
	g := newGroup(cfg, hub)
	if g.netMon != nil {
		t.Fatal("uniform group built a Network Monitor")
	}
	stats := g.run(context.Background())
	if stats.PolicyVersions != 0 || stats.Evictions != 0 {
		t.Fatalf("uniform group reports %d policies and %d evictions, want 0 and 0", stats.PolicyVersions, stats.Evictions)
	}
	if stats.Pulls == 0 {
		t.Fatal("the group pulled nothing")
	}
}

// TestLiveHealthyGroupEvictsNobody runs a failure-free group at the
// tightest staleness window, one period, over at least five periods. Every
// worker answers every collect, pulled or not, so none goes stale.
func TestLiveHealthyGroupEvictsNobody(t *testing.T) {
	hub := transport.NewLocalHub(func(i, j int) time.Duration { return time.Millisecond })
	defer hub.Close()
	cfg := liveConfig(4, 0)
	cfg.NetMax.TsSecs = 0.030
	cfg.NetMax.StalePeriods = 1
	cfg.Duration = 250 * time.Millisecond
	stats := Run(context.Background(), cfg, hub)
	if stats.Evictions != 0 {
		t.Fatalf("%d evictions in a healthy group", stats.Evictions)
	}
	if stats.PolicyVersions < 2 {
		t.Fatalf("%d policies published in %v: the monitor did not run its periods", stats.PolicyVersions, stats.Elapsed)
	}
}

// TestTimingFollowsTheMonitorWindow checks that a masked peer's retry
// cooldown is the monitor's liveness window plus one period, with the
// monitor's default window when the Config sets none.
func TestTimingFollowsTheMonitorWindow(t *testing.T) {
	for _, c := range []struct {
		stale int
		want  time.Duration
	}{{0, time.Duration(monitor.DefaultStalePeriods+1) * 500 * time.Millisecond}, {1, time.Second}, {5, 3 * time.Second}} {
		ts, cooldown := Timing(Config{NetMax: core.Options{TsSecs: 0.5, StalePeriods: c.stale}})
		if ts != 500*time.Millisecond || cooldown != c.want {
			t.Fatalf("StalePeriods %d: period %v, cooldown %v; want 500ms, %v", c.stale, ts, cooldown, c.want)
		}
	}
}

// TestUnsetPeriodTakesTheDefault runs an iteration-bounded group whose
// NetMax.TsSecs is unset: its monitor ticks at core.DefaultMonitorTs, as
// every other unset setting takes its default, and the run finishes.
func TestUnsetPeriodTakesTheDefault(t *testing.T) {
	hub := transport.NewLocalHub(nil)
	defer hub.Close()
	cfg := liveConfig(3, 20)
	cfg.NetMax.TsSecs = 0
	stats := Run(context.Background(), cfg, hub)
	for i, n := range stats.IterationsPerWorker {
		if n != 20 {
			t.Fatalf("worker %d ran %d of 20 iterations", i, n)
		}
	}
	if ts, _ := Timing(cfg); ts != time.Duration(core.DefaultMonitorTs*float64(time.Second)) {
		t.Fatalf("unset Ts gives a monitor period of %v, want %vs", ts, core.DefaultMonitorTs)
	}
}

// TestLiveGroupPermanentLeave verifies a worker that leaves for good: the
// survivors finish their iterations and the run terminates.
func TestLiveGroupPermanentLeave(t *testing.T) {
	hub := transport.NewLocalHub(func(i, j int) time.Duration { return time.Millisecond })
	defer hub.Close()
	cfg := liveConfig(3, 120)
	cfg.PullTimeout = 200 * time.Millisecond
	cfg.Failures = simnet.NewFailureSchedule().Leave(1, 0.020)
	done := make(chan *Stats, 1)
	go func() { done <- Run(context.Background(), cfg, hub) }()
	select {
	case stats := <-done:
		if stats.IterationsPerWorker[0] != 120 || stats.IterationsPerWorker[2] != 120 {
			t.Fatalf("survivors did not finish: %v", stats.IterationsPerWorker)
		}
		if stats.IterationsPerWorker[1] == 120 {
			t.Fatal("leaver completed every iteration; churn never fired")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run with a permanent leaver did not terminate")
	}
}

// TestLiveGroupCrashOverTCP drives the crash path over real sockets: the
// down endpoint drops connections, peers classify ErrPeerDown and finish.
// Worker 0 goes down at its first iteration: the survivors can finish their
// 200 iterations in about 20 ms, so a later crash could miss them entirely.
func TestLiveGroupCrashOverTCP(t *testing.T) {
	hub, err := transport.NewTCPHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	cfg := liveConfig(3, 200)
	cfg.PullTimeout = 300 * time.Millisecond
	cfg.Failures = simnet.NewFailureSchedule().Crash(0, 0, 0.200)
	stats := Run(context.Background(), cfg, hub)
	if stats.IterationsPerWorker[1] != 200 || stats.IterationsPerWorker[2] != 200 {
		t.Fatalf("survivors did not finish over TCP: %v", stats.IterationsPerWorker)
	}
	if stats.PeerDownErrors == 0 {
		t.Fatal("TCP crash produced no ErrPeerDown pulls")
	}
}

// liveConfig is a small MobileNet/MNIST group with the library's 2s pull
// deadline and the monitor's default eviction window.
func liveConfig(workers, iters int) Config {
	train, test := data.SynthMNIST.Generate(1)
	return Config{
		Spec:        nn.SimMobileNet,
		Part:        data.Uniform(train, workers, 1),
		Test:        test,
		LR:          0.1,
		Batch:       16,
		Seed:        7,
		NetMax:      core.Options{TsSecs: 0.050},
		Iterations:  iters,
		PullTimeout: 2 * time.Second,
	}
}

// TestLiveIterationsAllocateNothing runs a uniform-policy group on the
// in-process hub for n and for 2n iterations per worker: the extra
// iterations, pulls included, must not allocate. What a run allocates
// once (replicas, connections, buffers, the final evaluation) is the same
// for both. Ts is an hour, so the monitor never ticks in either run.
func TestLiveIterationsAllocateNothing(t *testing.T) {
	const n = 400
	mallocs := func(iters int) uint64 {
		hub := transport.NewLocalHub(nil)
		defer hub.Close()
		cfg := liveConfig(4, iters)
		cfg.NetMax.UniformPolicy = true
		cfg.NetMax.TsSecs = 3600
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats := Run(context.Background(), cfg, hub)
		runtime.ReadMemStats(&after)
		if stats.Pulls == 0 {
			t.Fatal("the group pulled nothing")
		}
		return after.Mallocs - before.Mallocs
	}
	short, long := mallocs(n), mallocs(2*n)
	t.Logf("mallocs: %d for %d iterations per worker, %d for %d", short, n, long, 2*n)
	// 4n extra iterations; a per-iteration allocation would add >= 4n.
	if long > short+n/4 {
		t.Fatalf("%d more allocations for %d more iterations per worker", long-short, n)
	}
}

func TestLiveGroupTrains(t *testing.T) {
	hub := transport.NewLocalHub(nil)
	defer hub.Close()
	stats := Run(context.Background(), liveConfig(4, 150), hub)
	if stats.FinalAccuracy < 0.85 {
		t.Fatalf("live accuracy = %v, want >= 0.85", stats.FinalAccuracy)
	}
	for i, c := range stats.IterationsPerWorker {
		if c != 150 {
			t.Fatalf("worker %d did %d iterations, want 150", i, c)
		}
	}
}

func TestLiveGroupRegeneratesPolicy(t *testing.T) {
	// Inject strong latency asymmetry so the policy matters and iterations
	// are slow enough for several monitor periods to pass.
	hub := transport.NewLocalHub(func(i, j int) time.Duration {
		if (i < 2) == (j < 2) {
			return time.Millisecond
		}
		return 8 * time.Millisecond
	})
	defer hub.Close()
	cfg := liveConfig(4, 250)
	cfg.NetMax.TsSecs = 0.060
	stats := Run(context.Background(), cfg, hub)
	if stats.PolicyVersions == 0 {
		t.Fatal("monitor never published a policy")
	}
	// The monitor pushes each new policy to the workers; one that never
	// adopted a push would still hold version 0.
	if len(stats.AdoptedVersions) != 4 {
		t.Fatalf("AdoptedVersions = %v, want one per worker", stats.AdoptedVersions)
	}
	for i, v := range stats.AdoptedVersions {
		if v < 1 || v > stats.PolicyVersions {
			t.Fatalf("worker %d stopped at policy version %d of %d published", i, v, stats.PolicyVersions)
		}
	}
}

func TestLiveGroupDurationBound(t *testing.T) {
	hub := transport.NewLocalHub(nil)
	defer hub.Close()
	cfg := liveConfig(2, 0)
	cfg.Duration = 300 * time.Millisecond
	start := time.Now()
	stats := Run(context.Background(), cfg, hub)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run overshot duration bound: %v", elapsed)
	}
	// Iteration progress within the bound depends on machine load (this
	// test shares the CPU with the rest of the suite), so only report it.
	t.Logf("iterations within %v: %v", cfg.Duration, stats.IterationsPerWorker)
}

func TestLiveGroupContextCancel(t *testing.T) {
	hub := transport.NewLocalHub(nil)
	defer hub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	cfg := liveConfig(2, 0) // unbounded iterations; relies on cancel
	done := make(chan struct{})
	go func() {
		Run(ctx, cfg, hub)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on context cancellation")
	}
}

func TestLiveGroupOverTCP(t *testing.T) {
	hub, err := transport.NewTCPHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	cfg := liveConfig(3, 80)
	stats := Run(context.Background(), cfg, hub)
	if stats.FinalAccuracy < 0.8 {
		t.Fatalf("TCP live accuracy = %v", stats.FinalAccuracy)
	}
	for i, c := range stats.IterationsPerWorker {
		if c != 80 {
			t.Fatalf("worker %d did %d iterations over TCP, want 80", i, c)
		}
	}
}

func TestLiveUniformMode(t *testing.T) {
	hub := transport.NewLocalHub(nil)
	defer hub.Close()
	cfg := liveConfig(3, 60)
	cfg.NetMax.UniformPolicy = true
	stats := Run(context.Background(), cfg, hub)
	if stats.PolicyVersions != 0 {
		t.Fatalf("uniform mode published %d policies", stats.PolicyVersions)
	}
	for i, v := range stats.AdoptedVersions {
		if v != 0 {
			t.Fatalf("worker %d adopted policy version %d in uniform mode", i, v)
		}
	}
}

// TestCompressionCodecsReduceBytes is the acceptance gate for the
// communication-efficient transport: on SimMobileNet, the float32 codec
// must cut bytes-on-wire by at least 2x versus raw while the trained
// consensus model stays within tolerance of the raw-codec accuracy.
func TestCompressionCodecsReduceBytes(t *testing.T) {
	run := func(c codec.Codec) *Stats {
		hub := transport.NewLocalHub(nil)
		defer hub.Close()
		cfg := liveConfig(4, 120)
		cfg.Codec = c
		return Run(context.Background(), cfg, hub)
	}
	raw := run(codec.Raw{})
	f32 := run(codec.Float32{})

	if raw.Pulls == 0 || raw.BytesOnWire == 0 {
		t.Fatalf("raw run recorded no traffic: %+v", raw)
	}
	// Bytes-per-pull comparison: iteration counts are identical, but pull
	// counts can differ by the few self-pull draws, so normalize.
	perPull := func(s *Stats) float64 { return float64(s.BytesOnWire) / float64(s.Pulls) }
	if r := perPull(raw) / perPull(f32); r < 2 {
		t.Fatalf("float32 reduced bytes/pull by only %.2fx (raw %.0f, float32 %.0f)", r, perPull(raw), perPull(f32))
	}
	// Accuracy within tolerance of the raw run.
	const tol = 0.05
	if f32.FinalAccuracy < raw.FinalAccuracy-tol {
		t.Fatalf("float32 accuracy %.3f fell more than %.2f below raw %.3f", f32.FinalAccuracy, tol, raw.FinalAccuracy)
	}
}

// TestLiveCodecOverTCP runs a short compressed group over real sockets so
// the codec id negotiation is exercised end to end in the live runtime.
func TestLiveCodecOverTCP(t *testing.T) {
	hub, err := transport.NewTCPHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	cfg := liveConfig(3, 60)
	cfg.Codec = codec.Float32{}
	stats := Run(context.Background(), cfg, hub)
	if stats.FinalAccuracy < 0.7 {
		t.Fatalf("compressed TCP live accuracy = %v", stats.FinalAccuracy)
	}
	if stats.BytesOnWire == 0 || stats.Pulls == 0 {
		t.Fatalf("no traffic recorded: %+v", stats)
	}
}

// TestLiveRejectsNonFinitePulls sets worker 1's parameters to NaN before
// any goroutine of the group starts, so every answer worker 1 serves is
// non-finite, and poisons its shard with NaN features, so its model stays
// non-finite through training. Every pull at it must be rejected and
// counted, and no other worker may blend the poisoned vector: after the
// run their served models are finite.
func TestLiveRejectsNonFinitePulls(t *testing.T) {
	hub := transport.NewLocalHub(nil)
	defer hub.Close()
	cfg := liveConfig(3, 60)
	cfg.NetMax.UniformPolicy = true
	for i := range cfg.Part.Shards[1].X.Data {
		cfg.Part.Shards[1].X.Data[i] = math.NaN()
	}
	g := newGroup(cfg, hub)
	poisoned := g.reps[1].Model
	nan := make([]float64, poisoned.VectorLen())
	for i := range nan {
		nan[i] = math.NaN()
	}
	poisoned.SetVector(nan)
	stats := g.run(context.Background())
	if stats.RejectedPulls == 0 {
		t.Fatal("no pull at the poisoned worker was rejected")
	}
	buf := make([]float64, cfg.Spec.Build(cfg.Seed, cfg.Part.Shards[0].Dim(), cfg.Part.Shards[0].Classes).VectorLen())
	for _, j := range []int{0, 2} {
		p := hub.Peer(1, j)
		p.Request()
		if _, err := p.Receive(buf); err != nil {
			t.Fatalf("worker %d blended a non-finite pull: %v", j, err)
		}
	}
	p := hub.Peer(0, 1)
	p.Request()
	if _, err := p.Receive(buf); !errors.Is(err, transport.ErrNonFinite) {
		t.Fatalf("pull at the poisoned worker: err = %v, want ErrNonFinite", err)
	}
}

// TestLiveRejectsMalformedPolicy offers a worker policies no worker may
// adopt: a matrix with too few rows (indexing it by worker id would
// panic), a NaN ρ (every blend would poison the model) and a NaN entry.
// Each leaves the worker at version 0 with its row unchanged, and a
// well-formed policy offered next is adopted.
func TestLiveRejectsMalformedPolicy(t *testing.T) {
	const m = 4
	nan := math.NaN()
	uniform := [][]float64{
		{0, 1.0 / 3, 1.0 / 3, 1.0 / 3},
		{1.0 / 3, 0, 1.0 / 3, 1.0 / 3},
		{1.0 / 3, 1.0 / 3, 0, 1.0 / 3},
		{1.0 / 3, 1.0 / 3, 1.0 / 3, 0},
	}
	good := [][]float64{{0, 1, 0, 0}, {1, 0, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}}
	for _, c := range []struct {
		name string
		p    [][]float64
		rho  float64
	}{
		{"short", uniform[:1], 1},
		{"nan-rho", uniform, nan},
		{"nan-entry", [][]float64{{0, nan, 0.5, 0.5}, uniform[1], uniform[2], uniform[3]}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			// The last worker: the short matrix has no row for it.
			w := &worker{id: m - 1, node: core.NewNodes(simnet.FullyConnected(m), 0.1, core.DefaultBeta, false)[m-1]}
			row := slices.Clone(w.node.Row())
			w.adopt(&transport.Policy{P: c.p, Rho: c.rho, Version: 1}, m)
			if w.version != 0 || !slices.Equal(w.node.Row(), row) {
				t.Fatalf("adopted the malformed policy: version %d, row %v (was %v)", w.version, w.node.Row(), row)
			}
			w.adopt(&transport.Policy{P: good, Rho: 0.5, Version: 2}, m)
			if w.version != 2 || !slices.Equal(w.node.Row(), good[m-1]) {
				t.Fatalf("a well-formed policy after it: version %d, row %v; want 2, %v", w.version, w.node.Row(), good[m-1])
			}
		})
	}
}

// TestNetMonitorIngestsOnlyNewObservations drives the monitor's period by
// hand over a three-worker hub whose link times the test sets. A link
// reaches the monitor only when its count grew, so a changed time under an
// old count is ignored; an answered collect keeps a worker alive without a
// new link; a down worker goes stale and is evicted; every worker behind
// the newest policy is pushed it; and the policies are numbered by
// regeneration.
func TestNetMonitorIngestsOnlyNewObservations(t *testing.T) {
	const m = 3
	var mu sync.Mutex
	rows := make([][]transport.LinkTime, m)
	sources := make([]transport.ModelSource, m)
	times := make([]transport.TimeSource, m)
	for i := range rows {
		rows[i] = make([]transport.LinkTime, m)
		sources[i] = func(dst []float64) []float64 { return dst[:0] }
		times[i] = func(dst []transport.LinkTime) ([]transport.LinkTime, int) {
			mu.Lock()
			defer mu.Unlock()
			return append(dst[:0], rows[i]...), 0
		}
	}
	set := func(i, j int, secs float64, count uint64) {
		mu.Lock()
		rows[i][j] = transport.LinkTime{Secs: secs, Count: count}
		mu.Unlock()
	}
	hub := transport.NewLocalHub(nil)
	defer hub.Close()
	if err := hub.Serve(transport.Group{Sources: sources, Times: times, Timeout: time.Second}); err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(monitor.Config{Adj: simnet.FullyConnected(m), Alpha: 0.1, Period: 1, StalePeriods: 1})
	n := newNetMonitor(hub, mon, m)

	set(0, 1, 2, 1)
	set(1, 0, 2, 1)
	set(2, 0, 2, 1)
	n.tick(1)
	if got := mon.Times()[0][1]; got != 2 {
		t.Fatalf("link (0, 1) reads %v after its first observation, want 2", got)
	}
	for i := 0; i < m; i++ {
		if p := hub.Pushed(i); p == nil || p.Version != 1 {
			t.Fatalf("worker %d holds %+v after the first regeneration, want version 1", i, p)
		}
	}
	set(0, 1, 5, 1)
	n.tick(2)
	if got := mon.Times()[0][1]; got != 2 {
		t.Fatalf("link (0, 1) reads %v: a time under an unchanged count was ingested", got)
	}
	set(0, 1, 5, 2)
	n.tick(3)
	if got := mon.Times()[0][1]; got != 5 {
		t.Fatalf("link (0, 1) reads %v after its second observation, want 5", got)
	}
	// Worker 2 goes down at 3. Workers 0 and 1 observe nothing new but
	// answer, so only worker 2 is evicted once a full period passes.
	hub.SetWorkerDown(2, true)
	n.tick(4)
	n.tick(5.5)
	if alive := mon.LiveWorkers(5.5); !alive[0] || !alive[1] || alive[2] {
		t.Fatalf("liveness %v at 5.5, want only worker 2 stale", alive)
	}
	if mon.Evictions() != 1 {
		t.Fatalf("%d evictions, want 1", mon.Evictions())
	}
	// The loop numbers its policies by regeneration, and every worker that
	// answered the last collect holds the newest.
	if v, regens := n.pub.Version, mon.Regenerations(); v != regens {
		t.Fatalf("published version %d after %d regenerations", v, regens)
	}
	for i := 0; i < m-1; i++ {
		if p := hub.Pushed(i); p == nil || p.Version != n.pub.Version {
			t.Fatalf("worker %d holds %+v, want version %d", i, p, n.pub.Version)
		}
	}
}
