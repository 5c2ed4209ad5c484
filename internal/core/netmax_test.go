package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"netmax/internal/data"
	"netmax/internal/engine"
	"netmax/internal/monitor"
	"netmax/internal/nn"
	"netmax/internal/policy"
	"netmax/internal/simnet"
)

func hetConfig(workers, epochs int, seed int64) *engine.Config {
	train, test := data.SynthMNIST.Generate(1)
	topo := simnet.PaperCluster(workers)
	return &engine.Config{
		Spec:    nn.SimResNet18,
		Part:    data.Uniform(train, workers, 1),
		Eval:    train.Head(256),
		Test:    test,
		Net:     simnet.NewHeterogeneousPeriod(topo, seed, 1e6, 8),
		LR:      0.1,
		Batch:   16,
		Epochs:  epochs,
		Seed:    5,
		Overlap: true,
	}
}

func TestNetMaxTrains(t *testing.T) {
	r := Run(hetConfig(4, 6, 3), Options{Ts: 2})
	if r.Epochs != 6 {
		t.Fatalf("epochs = %d", r.Epochs)
	}
	if r.FinalLoss >= r.Curve[0].Value {
		t.Fatalf("loss did not decrease: %v -> %v", r.Curve[0].Value, r.FinalLoss)
	}
	if r.FinalAccuracy < 0.85 {
		t.Fatalf("accuracy = %v", r.FinalAccuracy)
	}
}

func TestNetMaxDeterministic(t *testing.T) {
	a := Run(hetConfig(4, 3, 3), Options{Ts: 2})
	b := Run(hetConfig(4, 3, 3), Options{Ts: 2})
	if a.TotalTime != b.TotalTime || a.FinalLoss != b.FinalLoss {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", a.TotalTime, a.FinalLoss, b.TotalTime, b.FinalLoss)
	}
}

// TestRunDefaultTsIsDefaultMonitorTs checks that a zero Options.Ts runs the
// monitor on the scaled paper period that every documented entry point
// uses, not on the paper's unscaled 120 s.
func TestRunDefaultTsIsDefaultMonitorTs(t *testing.T) {
	def := Run(hetConfig(4, 3, 3), Options{})
	defRegens := DebugRegens()
	want := Run(hetConfig(4, 3, 3), Options{Ts: DefaultMonitorTs})
	if !reflect.DeepEqual(def, want) || defRegens != DebugRegens() {
		t.Fatalf("Options{} differs from Ts = DefaultMonitorTs: loss %v vs %v, virtual time %v vs %v, %d vs %d regenerations",
			def.FinalLoss, want.FinalLoss, def.TotalTime, want.TotalTime, defRegens, DebugRegens())
	}
}

func TestNetMaxRegeneratesPolicies(t *testing.T) {
	cfg := hetConfig(4, 8, 3)
	b := newBehavior(cfg.Net.Topo.Adj, cfg.LR, Options{Ts: 2}, false)
	engine.RunAsync(cfg, b, "NetMax")
	if b.mon.Regenerations() < 2 {
		t.Fatalf("monitor regenerated only %d times over a multi-period run", b.mon.Regenerations())
	}
}

func TestNetMaxFasterThanADPSGDHeterogeneous(t *testing.T) {
	// The headline claim (Fig. 8): on a heterogeneous network NetMax's
	// total training time beats AD-PSGD's for the same epoch count.
	nm := Run(hetConfig(8, 12, 11), Options{Ts: 2})
	ad := RunADPSGD(hetConfig(8, 12, 11))
	if nm.TotalTime >= ad.TotalTime {
		t.Fatalf("NetMax %vs not faster than AD-PSGD %vs", nm.TotalTime, ad.TotalTime)
	}
}

func TestNetMaxCommCostBelowADPSGD(t *testing.T) {
	// Fig. 5: NetMax's per-epoch communication cost is below AD-PSGD's.
	nm := Run(hetConfig(8, 12, 13), Options{Ts: 2})
	ad := RunADPSGD(hetConfig(8, 12, 13))
	if nm.CommCostPerEpoch(8) >= ad.CommCostPerEpoch(8) {
		t.Fatalf("NetMax comm %v >= AD-PSGD %v", nm.CommCostPerEpoch(8), ad.CommCostPerEpoch(8))
	}
	// Computation cost should be essentially identical (same model).
	if math.Abs(nm.CompCostPerEpoch(8)-ad.CompCostPerEpoch(8)) > 0.3*ad.CompCostPerEpoch(8) {
		t.Fatalf("comp costs diverge: %v vs %v", nm.CompCostPerEpoch(8), ad.CompCostPerEpoch(8))
	}
}

func TestNetMaxHomogeneousMatchesADPSGD(t *testing.T) {
	// Fig. 9: on a homogeneous network NetMax behaves like AD-PSGD (its
	// policy approaches uniform), so epoch times should be close.
	mk := func() *engine.Config {
		cfg := hetConfig(8, 8, 1)
		cfg.Net = simnet.NewHomogeneous(simnet.SingleMachine(8))
		return cfg
	}
	nm := Run(mk(), Options{Ts: 2})
	ad := RunADPSGD(mk())
	ratio := nm.TotalTime / ad.TotalTime
	if ratio > 1.5 || ratio < 0.5 {
		t.Fatalf("homogeneous NetMax/AD-PSGD time ratio = %v, want ~1", ratio)
	}
}

func TestUniformPolicyOptionDisablesAdaptation(t *testing.T) {
	adaptive := Run(hetConfig(8, 10, 17), Options{Ts: 2})
	cfg := hetConfig(8, 10, 17)
	b := newBehavior(cfg.Net.Topo.Adj, cfg.LR, Options{Ts: 2, UniformPolicy: true}, false)
	uniform := engine.RunAsync(cfg, b, "NetMax")
	// Fig. 7: adaptive probabilities are the main source of gain.
	if adaptive.TotalTime >= uniform.TotalTime {
		t.Fatalf("adaptive (%v) not faster than uniform (%v)", adaptive.TotalTime, uniform.TotalTime)
	}
	// The uniform arm discards every policy, so none may be generated.
	if b.mon.Regenerations() != 0 {
		t.Fatalf("uniform run generated %d policies, want 0", b.mon.Regenerations())
	}
}

func TestADPSGDMonitorBetweenADPSGDAndNetMax(t *testing.T) {
	// Fig. 15: AD-PSGD+Monitor is faster than plain AD-PSGD in time.
	ext := RunADPSGDMonitor(hetConfig(8, 10, 19), Options{Ts: 2})
	ad := RunADPSGD(hetConfig(8, 10, 19))
	if ext.TotalTime >= ad.TotalTime {
		t.Fatalf("AD-PSGD+Monitor (%v) not faster than AD-PSGD (%v)", ext.TotalTime, ad.TotalTime)
	}
	if ext.Algo != "AD-PSGD+Monitor" {
		t.Fatalf("algo label = %q", ext.Algo)
	}
}

func TestBlendCoefScalesInverselyWithProbability(t *testing.T) {
	cfg := hetConfig(4, 1, 3)
	n := NewNodes(cfg.Net.Topo.Adj, cfg.LR, DefaultBeta, false)[0]
	n.Adopt([][]float64{
		{0, 0.8, 0.1, 0.1},
		{0.8, 0, 0.1, 0.1},
		{0.1, 0.1, 0, 0.8},
		{0.1, 0.1, 0.8, 0},
	}, n.rho)
	cHigh := n.Coef(1) // frequently selected neighbor
	cLow := n.Coef(2)  // rarely selected neighbor
	if cLow <= cHigh {
		t.Fatalf("low-probability neighbor should get larger weight: %v vs %v", cLow, cHigh)
	}
	// Exact ratio: c ∝ 1/p, so cLow/cHigh = 8 (unless clamped at 1).
	if cLow < 1 && math.Abs(cLow/cHigh-8) > 1e-9 {
		t.Fatalf("blend ratio = %v, want 8", cLow/cHigh)
	}
}

func TestBlendCoefClamped(t *testing.T) {
	cfg := hetConfig(4, 1, 3)
	n := NewNodes(cfg.Net.Topo.Adj, cfg.LR, DefaultBeta, false)[0]
	n.rho = 1e6 // absurd rho must not produce a divergent blend
	if c := n.Coef(1); c > 1 {
		t.Fatalf("blend coefficient %v > 1", c)
	}
}

func TestSelectPeerRespectsPolicySupport(t *testing.T) {
	cfg := hetConfig(4, 1, 3)
	n := NewNodes(cfg.Net.Topo.Adj, cfg.LR, DefaultBeta, false)[0]
	n.Adopt([][]float64{
		{0, 1, 0, 0},
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	}, n.rho)
	ws := cfg.Workers()
	for k := 0; k < 100; k++ {
		if j := n.Select(ws[0].Rng); j != 1 {
			t.Fatalf("selected %d with deterministic policy", j)
		}
	}
}

// TestFixedBlendOption pins the blend each entry point runs: Run's nodes
// pull one-sided with the 1/p-scaled coefficient, RunADPSGDMonitor's
// average two-sided with coefficient 1/2 whatever row they adopt.
func TestFixedBlendOption(t *testing.T) {
	cfg := hetConfig(4, 1, 3)
	if b := newBehavior(cfg.Net.Topo.Adj, cfg.LR, Options{}, false); b.nodes[0].TwoSided() || b.nodes[0].Coef(1) == 0.5 {
		t.Fatalf("NetMax node: two-sided %v, coefficient %v", b.nodes[0].TwoSided(), b.nodes[0].Coef(1))
	}
	b := newBehavior(cfg.Net.Topo.Adj, cfg.LR, Options{}, true)
	if !b.nodes[0].TwoSided() {
		t.Fatal("AD-PSGD+Monitor blend is one-sided")
	}
	n := b.nodes[0]
	n.Adopt([][]float64{{0, 0.9, 0.05, 0.05}}, 3)
	if c := n.Coef(1); c != 0.5 {
		t.Fatalf("fixed blend = %v, want 0.5", c)
	}
	if c := n.Coef(2); c != 0.5 {
		t.Fatalf("fixed blend = %v, want 0.5", c)
	}
}

// TestOptionsDefaults pins the defaults Resolved gives the unset settings,
// its fallback for an out-of-range β or window, and that set values pass
// through.
func TestOptionsDefaults(t *testing.T) {
	want := Options{Ts: 2.4, Beta: 0.5, PolicyRounds: 10, StalePeriods: 3}
	if got := (Options{}).Resolved(); got != want {
		t.Fatalf("Options{}.Resolved() = %+v, want %+v", got, want)
	}
	for _, o := range []Options{{Beta: 1.5}, {Beta: -0.2}, {StalePeriods: -1}} {
		if got := o.Resolved(); got != want {
			t.Fatalf("%+v.Resolved() = %+v, want %+v", o, got, want)
		}
	}
	set := Options{Ts: 0.5, Beta: 0.9, PolicyRounds: 4, UniformPolicy: true, StalePeriods: 7}
	if got := set.Resolved(); got != set {
		t.Fatalf("%+v.Resolved() = %+v", set, got)
	}
}

func TestEMAUpdateRule(t *testing.T) {
	cfg := hetConfig(4, 1, 3)
	nodes := NewNodes(cfg.Net.Topo.Adj, cfg.LR, 0.5, false)
	nodes[0].Observe(1, 2.0)
	if nodes[0].ema[1] != 2.0 {
		t.Fatalf("first observation should seed EMA, got %v", nodes[0].ema[1])
	}
	nodes[0].Observe(1, 4.0)
	if math.Abs(nodes[0].ema[1]-3.0) > 1e-12 {
		t.Fatalf("EMA = %v, want 0.5*2 + 0.5*4 = 3", nodes[0].ema[1])
	}
	nodes[2].Observe(2, 9.0)
	if nodes[2].ema[2] != 0 {
		t.Fatal("self iteration should not touch EMA")
	}
}

// TestNetMaxSurvivesCrashRejoin runs NetMax end to end through a crash +
// rejoin with monitor liveness tracking enabled: the run must finish every
// epoch, keep the loss decreasing in trend, and leave no peer masked.
func TestNetMaxSurvivesCrashRejoin(t *testing.T) {
	clean := Run(hetConfig(4, 4, 3), Options{Ts: 2})
	cfg := hetConfig(4, 4, 3)
	cfg.Failures = simnet.NewFailureSchedule().
		Crash(1, clean.TotalTime*0.25, clean.TotalTime*0.55)
	r := Run(cfg, Options{Ts: 2, StalePeriods: 2})
	if r.Epochs != 4 {
		t.Fatalf("churn run completed %d epochs, want 4", r.Epochs)
	}
	n := len(r.Curve)
	if !(r.Curve[n-1].Value < r.Curve[0].Value) {
		t.Fatalf("loss trend not decreasing through churn: %v -> %v",
			r.Curve[0].Value, r.Curve[n-1].Value)
	}
	if math.IsNaN(r.FinalLoss) || math.IsInf(r.FinalLoss, 0) {
		t.Fatalf("final loss not finite: %v", r.FinalLoss)
	}
}

// TestNetMaxFailureFreeScheduleIdentical pins the bitwise gate one level
// up: a NetMax run with an inert schedule attached matches the bare run.
func TestNetMaxFailureFreeScheduleIdentical(t *testing.T) {
	a := Run(hetConfig(4, 2, 3), Options{Ts: 2})
	cfg := hetConfig(4, 2, 3)
	cfg.Failures = simnet.NewFailureSchedule() // empty
	b := Run(cfg, Options{Ts: 2})
	if a.TotalTime != b.TotalTime || a.FinalLoss != b.FinalLoss || a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("inert schedule changed the trajectory: %v/%v vs %v/%v",
			a.TotalTime, a.FinalLoss, b.TotalTime, b.FinalLoss)
	}
}

// TestNetMaxReadmitsEvictedWorker is the regression test for the exile
// loop: a worker down long enough to be evicted used to adopt the policy
// row pinned to self, never pull, never report, and never be re-admitted —
// while the coverage gate froze policy regeneration for the whole cluster.
// After the rejoin, the worker must end the run live and receiving pulls.
func TestNetMaxReadmitsEvictedWorker(t *testing.T) {
	clean := Run(hetConfig(4, 2, 3), Options{Ts: 2})
	cfg := hetConfig(4, 8, 3)
	// Down for many staleness windows (Ts=2, k=1): guaranteed eviction.
	crashAt := clean.TotalTime * 0.5
	rejoinAt := crashAt + 10*2
	cfg.Failures = simnet.NewFailureSchedule().Crash(1, crashAt, rejoinAt)
	b := newBehavior(cfg.Net.Topo.Adj, cfg.LR, Options{Ts: 2, StalePeriods: 1}, false)
	r := engine.RunAsync(cfg, b, "NetMax")
	if r.Epochs != 8 {
		t.Fatalf("run completed %d epochs, want 8", r.Epochs)
	}
	alive := b.mon.LiveWorkers(r.TotalTime)
	if b.mon.Evictions() == 0 {
		t.Fatal("worker was never evicted; the scenario did not exercise re-admission")
	}
	if !alive[1] {
		t.Fatal("rejoined worker still considered dead at run end (exile loop)")
	}
	if policy.SelfOnly(b.nodes[1].Row(), 1) {
		t.Fatalf("final policy still pins the rejoined worker to self: %v", b.nodes[1].Row())
	}
}

// planProbe is NetMax's behavior with every planned pull handed to check.
type planProbe struct {
	*behavior
	check func(i int, now float64, p engine.Pull)
}

func (b planProbe) Plan(i int, now float64, rng *rand.Rand) engine.Pull {
	p := b.behavior.Plan(i, now, rng)
	b.check(i, now, p)
	return p
}

// TestNetMaxIsolatedWorkerKeepsLastRow runs NetMax on a 4-ring through a
// window in which workers 1 and 3 are down, leaving workers 0 and 2 with no
// live neighbor. The live subgraph is not connected, so the monitor's
// policy.Generate returns ErrNoFeasiblePolicy and the monitor keeps the last
// policy: each isolated worker keeps running on the row it held when the
// window opened, with its dead peers masked and so no pull, and the run
// finishes every epoch without a NaN. After the rejoin the monitor
// regenerates again.
func TestNetMaxIsolatedWorkerKeepsLastRow(t *testing.T) {
	ringConfig := func(epochs int) *engine.Config {
		cfg := hetConfig(4, epochs, 3)
		cfg.Net.Topo.Adj = simnet.Ring(4)
		return cfg
	}
	clean := Run(ringConfig(4), Options{Ts: 2})
	down, up := clean.TotalTime*0.3, clean.TotalTime*0.6
	cfg := ringConfig(4)
	cfg.Failures = simnet.NewFailureSchedule().Crash(1, down, up).Crash(3, down, up)
	b := newBehavior(cfg.Net.Topo.Adj, cfg.LR, Options{Ts: 2}, false)
	isolated := []int{0, 2}
	held := make([][]float64, 4) // each isolated worker's row as the window opens
	regens, inWindow := -1, 0
	r := engine.RunAsync(cfg, planProbe{b, func(i int, now float64, p engine.Pull) {
		if math.IsNaN(p.Coef) {
			t.Fatalf("worker %d at t = %v: NaN blend coefficient", i, now)
		}
		if now < down || now >= up {
			for _, k := range isolated {
				held[k] = b.nodes[k].Row()
			}
			return
		}
		if regens < 0 {
			regens = b.mon.Regenerations()
		}
		if b.mon.Regenerations() != regens {
			t.Fatalf("t = %v: the monitor regenerated a policy for a disconnected live graph", now)
		}
		if i != 0 && i != 2 {
			return
		}
		inWindow++
		n := b.nodes[i]
		if row := n.Row(); &row[0] != &held[i][0] {
			t.Fatalf("worker %d at t = %v: row %v, held %v as the window opened", i, now, row, held[i])
		}
		if !n.Masked(1) || !n.Masked(3) {
			t.Fatalf("worker %d at t = %v: dead peers not masked", i, now)
		}
		if p.Peer != i {
			t.Fatalf("worker %d at t = %v: pulls from %d, which is down", i, now, p.Peer)
		}
	}}, "NetMax")
	t.Logf("%d isolated iterations after %d regenerations, %d at the end", inWindow, regens, b.mon.Regenerations())
	if inWindow == 0 || regens < 1 {
		t.Fatalf("%d isolated iterations after %d regenerations; the run did not exercise the window", inWindow, regens)
	}
	if r.Epochs != 4 || math.IsNaN(r.FinalLoss) || math.IsInf(r.FinalLoss, 0) {
		t.Fatalf("%d epochs, final loss %v", r.Epochs, r.FinalLoss)
	}
	if b.mon.Regenerations() <= regens {
		t.Fatalf("no regeneration after the rejoin: %d, %d in the window", b.mon.Regenerations(), regens)
	}
	_, err := policy.Generate(policy.Input{Times: b.mon.Times(), Adj: cfg.Net.Topo.Adj, Alpha: cfg.LR,
		Alive: []bool{true, false, true, false}})
	if !errors.Is(err, policy.ErrNoFeasiblePolicy) {
		t.Fatalf("Generate on the isolated pair: %v, want ErrNoFeasiblePolicy", err)
	}
}

// endProbe is planProbe with every iteration's worker, peer and length
// also handed to record.
type endProbe struct {
	planProbe
	record func(i, j int, iterSecs float64)
}

func (b endProbe) OnIterationEnd(i, j int, iterSecs, now float64) {
	b.behavior.OnIterationEnd(i, j, iterSecs, now)
	b.record(i, j, iterSecs)
}

// TestEveryIterationStampsItsEnd pins the engine's liveness rule: an
// iteration that starts at now and lasts iterSecs tells the monitor that
// its worker was alive at now + iterSecs, whether it pulled (worker 0) or
// selected itself (worker 1).
func TestEveryIterationStampsItsEnd(t *testing.T) {
	window := float64(monitor.DefaultStalePeriods) * 2
	b := newBehavior(simnet.FullyConnected(3), 0.1, Options{Ts: 2}, false)
	b.OnIterationEnd(0, 2, 5, 100)
	b.OnIterationEnd(1, 1, 5, 100)
	if alive := b.mon.LiveWorkers(105 + window); !alive[0] || !alive[1] {
		t.Fatalf("liveness %v when the window closes on the iterations' end", alive)
	}
	if alive := b.mon.LiveWorkers(105 + window + 0.01); alive[0] || alive[1] {
		t.Fatalf("liveness %v after the window closed on the iterations' end", alive)
	}
}

// TestFailureFreeRunEvictsNobody runs NetMax and AD-PSGD+Monitor on the
// heterogeneous cluster with default Options, so the monitor evicts after
// monitor.DefaultStalePeriods periods, and with no failure. Pulls over the
// slowed link outlast the liveness window, and workers go several
// iterations without a pull. Every iteration stamps its worker at its end,
// pulled or not, so no healthy worker goes stale.
func TestFailureFreeRunEvictsNobody(t *testing.T) {
	window := float64(monitor.DefaultStalePeriods) * DefaultMonitorTs
	for _, averaging := range []bool{false, true} {
		cfg := hetConfig(8, 4, 3)
		b := newBehavior(cfg.Net.Topo.Adj, cfg.LR, Options{}, averaging)
		longest, selfRun, run := 0.0, 0, make([]int, 8)
		r := engine.RunAsync(cfg, endProbe{planProbe{b, func(int, float64, engine.Pull) {}}, func(i, j int, iterSecs float64) {
			longest = max(longest, iterSecs)
			if j != i {
				run[i] = 0
				return
			}
			run[i]++
			selfRun = max(selfRun, run[i])
		}}, "NetMax")
		t.Logf("averaging %v: longest iteration %.2f s against a %.1f s window; up to %d self-selected iterations in a row; %d regenerations",
			averaging, longest, window, selfRun, b.mon.Regenerations())
		if longest <= window || selfRun < 2 {
			t.Fatalf("averaging %v: longest iteration %v s, %d self-selected in a row: the run cannot tell the stamping rules apart", averaging, longest, selfRun)
		}
		if r.Epochs != 4 {
			t.Fatalf("averaging %v: %d epochs, want 4", averaging, r.Epochs)
		}
		if b.mon.Evictions() != 0 {
			t.Fatalf("averaging %v: the monitor evicted %d healthy workers", averaging, b.mon.Evictions())
		}
	}
}

// TestHungWorkerEvictedWithinWindow hangs worker 1 on a static network
// with default Options: the monitor must evict it once the liveness window
// of monitor.DefaultStalePeriods periods has passed since the hang began,
// and no later than one of the hung worker's iterations after that: its
// last stamp is the end of the iteration the hang cut short.
func TestHungWorkerEvictedWithinWindow(t *testing.T) {
	window := float64(monitor.DefaultStalePeriods) * DefaultMonitorTs
	const hung = 1
	staticConfig := func() *engine.Config {
		cfg := hetConfig(4, 4, 3)
		cfg.Net = simnet.NewStatic(cfg.Net.Topo)
		return cfg
	}
	clean := Run(staticConfig(), Options{})
	at := clean.TotalTime * 0.3
	cfg := staticConfig()
	cfg.Failures = simnet.NewFailureSchedule().Hang(hung, at, at+3*window)
	b := newBehavior(cfg.Net.Topo.Adj, cfg.LR, Options{}, false)
	longest, evicted := 0.0, -1.0 // the hung worker's longest iteration; the eviction time
	engine.RunAsync(cfg, endProbe{planProbe{b, func(_ int, now float64, _ engine.Pull) {
		if evicted < 0 && b.mon.Evictions() > 0 {
			evicted = now
		}
	}}, func(i, _ int, iterSecs float64) {
		if i == hung {
			longest = max(longest, iterSecs)
		}
	}}, "NetMax")
	t.Logf("hang at %.3f s, window %.1f s, longest iteration %.3f s, evicted at %.3f s", at, window, longest, evicted)
	if evicted < 0 {
		t.Fatal("the hung worker was never evicted")
	}
	if b.mon.Evictions() != 1 {
		t.Fatalf("%d evictions, want the hung worker's 1", b.mon.Evictions())
	}
	if evicted <= at+window || evicted > at+window+longest {
		t.Fatalf("evicted at %v s, want in (%v, %v]: the hang at %v s plus the %v s window plus one %v s iteration",
			evicted, at+window, at+window+longest, at, window, longest)
	}
}
