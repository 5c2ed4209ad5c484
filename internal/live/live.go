// Package live runs NetMax as an actual concurrent process group — real
// goroutine workers exchanging models through a transport.Hub, a real
// Network Monitor regenerating policies on a wall-clock timer — as opposed
// to the discrete-event simulation in internal/engine. This is the
// deployment-shaped half of the reproduction. The hub speaks one wire
// protocol over loopback TCP (transport.NewLocalHub, which both
// live.transport spellings open; only "local" admits injected latency).
// Run serves the whole group on it once, before the first pull, with the
// configured codec and deadline.
//
// The algorithm is not re-implemented here. Each worker goroutine drives
// core.Node, the per-worker NetMax state the engine's behavior also uses
// (peer selection, blend coefficient, EMA update, policy adoption, peer
// mask), and trains an engine.Worker replica built by engine.Config.Workers,
// so it starts from the simulated worker's model, batch order and RNG
// stream. What stays here is what only a live group has: wall-clock
// timing, the transport, policies pushed over the wire (validated before
// adoption), pulled models decoded straight off the wire (a non-finite one
// is rejected, never blended), the peer-down retry cooldown and scheduled
// churn, read from the engine's simnet.FailureSchedule on the wall clock.
//
// A worker overlaps its pull with its gradient step, as in Algorithm 2,
// on its own goroutine: it sends the pull request (PullClient.Request)
// before the step and reads the answer (PullClient.Receive) after it, so
// the peer's server copies, encodes and writes the model while the worker
// computes. A run starts no goroutine per iteration.
//
// The Network Monitor talks to the workers once per period Ts, as in
// Algorithm 1: it collects every worker's EMA link times over the wire,
// regenerates the policy, and pushes it to each worker that has not
// adopted it. The monitor loop is the only publisher: it numbers the
// policies it generates 1, 2, … and keeps the newest. A worker sends the
// monitor nothing; it adopts a pushed policy at its next iteration. A
// uniform group generates no policy, so it builds no Network Monitor, runs
// no monitor loop and sends no monitor frames; its workers time no
// iteration and keep no link times.
package live

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"netmax/internal/codec"
	"netmax/internal/core"
	"netmax/internal/data"
	"netmax/internal/engine"
	"netmax/internal/monitor"
	"netmax/internal/nn"
	"netmax/internal/policy"
	"netmax/internal/simnet"
	"netmax/internal/transport"
)

// Config describes a live NetMax group.
type Config struct {
	Spec  nn.ModelSpec
	Part  *data.Partition
	Test  *data.Dataset
	LR    float64
	Batch int
	Seed  int64
	// NetMax tunes the monitor and workers as it tunes core.Run, but
	// TsSecs is the wall-clock period. Unset fields take the engine's
	// defaults (see core.Options.Resolved). Under UniformPolicy the group
	// builds no Network Monitor.
	NetMax core.Options
	// Duration bounds the run (wall clock); zero means rely on Iterations.
	Duration time.Duration
	// Iterations bounds per-worker iterations; zero means rely on Duration.
	Iterations int
	// Codec compresses model pulls on the wire (nil keeps the transport's
	// default raw float64 encoding).
	Codec codec.Codec
	// PullTimeout bounds every model pull and monitor exchange: a hung or
	// dead peer costs at most one deadline instead of blocking the worker
	// forever. Zero disables deadlines.
	PullTimeout time.Duration
	// Failures schedules crashes and leaves in wall-clock seconds since the
	// start: a crashed worker's endpoint refuses pulls until it rejoins with
	// the parameters it held. Hangs and blackouts are not injected. Nil
	// schedules nothing.
	Failures *simnet.FailureSchedule
}

// Stats summarizes a live run.
type Stats struct {
	// IterationsPerWorker counts completed iterations per worker.
	IterationsPerWorker []int
	// FinalAccuracy of the averaged model on the test set.
	FinalAccuracy float64
	// FinalLoss of the averaged model on the test set. The engine's
	// Result.FinalLoss is a loss on a training subset instead.
	FinalLoss float64
	// PolicyVersions is the version of the newest policy the monitor
	// generated: the number of policies it published (0 in uniform mode).
	PolicyVersions int
	// AdoptedVersions is the policy version each worker held when it
	// stopped (0: it never adopted one).
	AdoptedVersions []int
	// BytesOnWire is the total encoded payload volume of all model pulls,
	// as produced by the configured codec and counted by the pullers.
	BytesOnWire int64
	// Pulls counts completed cross-worker model pulls.
	Pulls int64
	// PeerDownErrors counts pulls that failed with transport.ErrPeerDown
	// (dead or hung peers, expired deadlines).
	PeerDownErrors int64
	// RejectedPulls counts pulls that failed with transport.ErrNonFinite:
	// the peer served a NaN or ±Inf coordinate, so the puller kept its
	// model and reported no time for the link.
	RejectedPulls int64
	// Evictions counts workers the monitor evicted for staleness: a worker
	// that answered no collect for the staleness window.
	Evictions int
	// Elapsed wall time.
	Elapsed time.Duration
}

// worker is one live training replica: the engine's replica (model,
// optimizer, shard, batch cursor, RNG stream) driven by core's per-worker
// NetMax state. Everything but mu, timesMu and what they guard is owned by
// the worker goroutine.
type worker struct {
	id  int
	rep *engine.Worker
	// mu guards the writes of rep.Model's parameters (the optimizer step
	// and the blend) against the transport's copyVector, which reads only
	// the parameters. The gradient computation runs outside it: it reads
	// the parameters and writes only gradients and activations.
	mu   sync.Mutex
	node *core.Node
	// pulled is the buffer pulls decode into, straight off the wire,
	// before the blend.
	pulled []float64
	// offered is the last pushed policy the worker checked for adoption.
	offered *transport.Policy
	// maskedAt records when a pull at each peer last failed with
	// ErrPeerDown. The node skips such a peer until the monitor reacts (a
	// new policy version gives it mass) or a retry cooldown expires.
	maskedAt []time.Time

	// timesMu guards what the monitor collects, apart from mu, which the
	// optimizer step holds. Only the worker goroutine writes it.
	timesMu sync.Mutex
	// times holds the EMA time and observation count of every link; nil in
	// a group without a Network Monitor, which collects none.
	times []transport.LinkTime
	// version is the policy version the node last adopted.
	version int
}

// copyVector is the worker's transport.ModelSource.
func (w *worker) copyVector(dst []float64) []float64 {
	if n := w.rep.Model.VectorLen(); len(dst) != n {
		dst = make([]float64, n)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rep.Model.CopyVector(dst)
}

// collect is the worker's transport.TimeSource.
func (w *worker) collect(dst []transport.LinkTime) ([]transport.LinkTime, int) {
	w.timesMu.Lock()
	defer w.timesMu.Unlock()
	return append(dst[:0], w.times...), w.version
}

// observe folds a measured iteration time over link j into the node's EMA
// and records the result for the monitor's next collect.
func (w *worker) observe(j int, secs float64) {
	t := w.node.Observe(j, secs)
	w.timesMu.Lock()
	w.times[j].Secs = t
	w.times[j].Count++
	w.timesMu.Unlock()
}

// adopt installs p, unless it is malformed (it arrives over the wire) or
// not newer than the adopted policy. Masks reset only for peers the new
// policy assigns mass — the monitor believes those are usable. (A version
// generated just before a crash can still carry mass on the dead peer and
// cost one more deadline; the cooldown bounds that.) A masked peer the
// policy dropped stays masked, which is a no-op anyway since its row mass
// is zero.
func (w *worker) adopt(p *transport.Policy, m int) {
	if p.Version <= w.version || policy.Validate(p.P, p.Rho, m) != nil {
		return
	}
	w.node.Adopt(p.P, p.Rho)
	w.timesMu.Lock()
	w.version = p.Version
	w.timesMu.Unlock()
	for k, pk := range w.node.Row() {
		if pk > 0 {
			w.node.SetMasked(k, false)
		}
	}
}

// netMonitor is the live Network Monitor's side of the wire: once per
// period it collects every worker's link times, feeds the new ones to the
// monitor, and pushes the newest policy to workers behind it. Only the
// monitor goroutine uses it; Run reads pub after the loop has ended.
type netMonitor struct {
	hub *transport.Hub
	mon *monitor.Monitor
	// pub is the newest policy the monitor generated, numbered 1, 2, … by
	// regeneration; version 0 before the first.
	pub transport.Policy
	row []transport.LinkTime
	// seen[i][j] is the observation count of link (i, j) the monitor last
	// ingested: a link is fed to the monitor only when its count grew, so
	// a re-sent collect, or a rejoining worker, re-feeds nothing.
	seen [][]uint64
	// adopted[i] is the policy version worker i's last answer reported,
	// or -1 when it did not answer this period.
	adopted []int
}

func newNetMonitor(hub *transport.Hub, mon *monitor.Monitor, m int) *netMonitor {
	seen := make([][]uint64, m)
	for i := range seen {
		seen[i] = make([]uint64, m)
	}
	return &netMonitor{hub: hub, mon: mon, row: make([]transport.LinkTime, m), seen: seen, adopted: make([]int, m)}
}

// tick runs one period at wall time now (seconds since the start).
func (n *netMonitor) tick(now float64) {
	for i := range n.seen {
		n.adopted[i] = -1
		v, err := n.hub.Control(i).Collect(n.row)
		if err != nil {
			continue // down or hung: unheard, so it goes stale
		}
		n.adopted[i] = v
		n.mon.Heartbeat(i, now)
		for j, lt := range n.row {
			if lt.Count > n.seen[i][j] {
				n.seen[i][j] = lt.Count
				n.mon.ObserveAt(i, j, lt.Secs, now)
			}
		}
	}
	if pol, ok := n.mon.MaybeRegenerate(now); ok {
		n.pub = transport.Policy{P: pol.P, Rho: pol.Rho, Version: n.pub.Version + 1}
	}
	// A worker that missed a push, or rejected the policy, is behind and
	// gets it again next period. Before the first policy none is behind.
	for i, v := range n.adopted {
		if v >= 0 && v < n.pub.Version {
			_ = n.hub.Control(i).Push(&n.pub)
		}
	}
}

// Timing returns the wall-clock monitor period of a run of cfg and how long
// a worker keeps a failed peer masked before it retries it: the monitor's
// liveness window plus one period, so the monitor has had a fair chance to
// react.
func Timing(cfg Config) (ts, maskCooldown time.Duration) {
	opts := cfg.NetMax.Resolved()
	ts = time.Duration(opts.TsSecs * float64(time.Second))
	return ts, ts * time.Duration(opts.StalePeriods+1)
}

// Run executes the live group until the configured bound and returns stats.
// The transport hub must be fresh; Run serves the whole group on it.
func Run(ctx context.Context, cfg Config, hub *transport.Hub) *Stats {
	return newGroup(cfg, hub).run(ctx)
}

// group is a live run built and served but not started: no goroutine of it
// runs yet, so what it holds may still be changed.
type group struct {
	cfg   Config
	hub   *transport.Hub
	start time.Time
	// netMon is nil in a uniform group, which generates no policy.
	netMon  *netMonitor
	reps    []*engine.Worker
	workers []*worker
}

// newGroup builds cfg's workers and Network Monitor, if the group adapts
// its policy, and serves the group on hub.
func newGroup(cfg Config, hub *transport.Hub) *group {
	m := len(cfg.Part.Shards)
	g := &group{cfg: cfg, hub: hub, start: time.Now(), workers: make([]*worker, m)}
	nodes, src := core.NewControl(simnet.FullyConnected(m), cfg.LR, cfg.NetMax, false)
	mon, _ := src.(*monitor.Monitor) // nil for the fixed source of a uniform group

	// The replicas are the engine's, so a live worker starts from the same
	// model, batch order and RNG stream as the simulated one.
	ecfg := &engine.Config{Spec: cfg.Spec, Part: cfg.Part, LR: cfg.LR, Batch: cfg.Batch, Seed: cfg.Seed}
	g.reps = ecfg.Workers()
	sources := make([]transport.ModelSource, m)
	// Only a monitor collects link times: a group without one serves no
	// time source, and its workers time no iteration.
	var times []transport.TimeSource
	for i, rep := range g.reps {
		w := &worker{id: i, rep: rep, node: nodes[i], pulled: make([]float64, rep.Model.VectorLen()),
			maskedAt: make([]time.Time, m)}
		g.workers[i] = w
		sources[i] = w.copyVector
		if mon != nil {
			w.times = make([]transport.LinkTime, m)
			times = append(times, w.collect)
		}
	}
	// A worker whose endpoint cannot be opened (descriptor exhaustion) is
	// unreachable: pulls at it count as PeerDownErrors, as for a crash.
	_ = hub.Serve(transport.Group{
		Sources: sources,
		Times:   times,
		Codec:   cfg.Codec,
		Timeout: cfg.PullTimeout,
	})
	if mon != nil {
		g.netMon = newNetMonitor(hub, mon, m)
	}
	return g
}

// run starts the monitor loop and the worker goroutines, waits for the
// configured bound and returns the run's stats.
func (g *group) run(ctx context.Context) *Stats {
	cfg, hub, start, workers := g.cfg, g.hub, g.start, g.workers
	m := len(workers)
	fs := simnet.NewFailureSchedule()
	if cfg.Failures != nil {
		fs = cfg.Failures
	}
	ts, maskCooldown := Timing(cfg)

	// A worker the schedule has down from the start is down before any
	// goroutine of the run starts, so no peer's first pull finds it up.
	for i := range workers {
		if fs.Down(i, 0) {
			hub.SetWorkerDown(i, true)
		}
	}

	// Always derive a cancellable context: when the run is bounded by
	// Iterations rather than Duration, the monitor goroutine must still be
	// stopped once the workers finish.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if cfg.Duration > 0 {
		runCtx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	// Monitor loop: one collect, regeneration and push round per period.
	// A uniform group has no monitor, so it runs no loop.
	monDone := make(chan struct{})
	if g.netMon == nil {
		close(monDone)
	} else {
		go func() {
			defer close(monDone)
			ticker := time.NewTicker(ts)
			defer ticker.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-ticker.C:
					g.netMon.tick(time.Since(start).Seconds())
				}
			}
		}()
	}

	timed := g.netMon != nil // only a monitor reads iteration times
	counts := make([]int, m)
	var wireBytes, pulls, peerDown, rejected atomic.Int64
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for it := 0; cfg.Iterations == 0 || it < cfg.Iterations; it++ {
				select {
				case <-runCtx.Done():
					return
				default:
				}
				// Scheduled churn: crash (endpoint refuses pulls and
				// collects, no iterations) and rejoin with the parameters
				// held at crash time. A permanent leave exits the loop.
				if now := time.Since(start).Seconds(); fs.Down(w.id, now) {
					hub.SetWorkerDown(w.id, true)
					up, ok := fs.NextUp(w.id, now)
					if !ok {
						return
					}
					select {
					case <-runCtx.Done():
						return
					case <-time.After(time.Duration(up*float64(time.Second)) - time.Since(start)):
					}
					hub.SetWorkerDown(w.id, false)
				}
				// Check the newest policy the monitor pushed, once.
				if p := hub.Pushed(w.id); p != w.offered {
					w.offered = p
					w.adopt(p, m)
				}
				// Retry cooldown: without policy broadcasts (uniform mode)
				// a mask would otherwise be permanent and a rejoining peer
				// never re-admitted.
				for k, at := range w.maskedAt {
					if w.node.Masked(k) && time.Since(at) > maskCooldown {
						w.node.SetMasked(k, false)
					}
				}
				j := w.node.Select(w.rep.Rng)
				var iterStart time.Time
				if timed {
					iterStart = time.Now()
				}
				// Request the neighbor's model before the local gradient
				// step and read the answer after it: the peer's server
				// copies, encodes and sends the model while this worker
				// computes (Algorithm 2's overlap). The answer decodes
				// straight into w.pulled.
				var peer *transport.PullClient
				if j != w.id {
					peer = hub.Peer(w.id, j)
					peer.Request()
				}
				w.rep.ComputeGrad()
				w.mu.Lock()
				w.rep.ApplyStep()
				w.mu.Unlock()
				var pulledBytes int64
				var pullErr error
				if peer != nil {
					pulledBytes, pullErr = peer.Receive(w.pulled)
				}
				switch {
				case j == w.id:
					// Self-selection: no pull, nothing to blend.
				case pullErr == nil:
					coef := w.node.Coef(j)
					w.mu.Lock()
					w.rep.Model.BlendVector(coef, w.pulled)
					w.mu.Unlock()
					wireBytes.Add(pulledBytes)
					pulls.Add(1)
					if timed {
						w.observe(j, time.Since(iterStart).Seconds())
					}
				case errors.Is(pullErr, transport.ErrNonFinite):
					// The peer answered with a poisoned vector: keep the
					// local model, and observe nothing, so the link's
					// measured time is not credited to a pull that never
					// blended.
					rejected.Add(1)
				default:
					// Failed pull: mask the peer locally until the monitor
					// reacts, and observe the attempt's (deadline-inflated)
					// cost so the link degrades in the policy input rather
					// than keeping its last attractive time.
					if errors.Is(pullErr, transport.ErrPeerDown) {
						w.node.SetMasked(j, true)
						w.maskedAt[j] = time.Now()
						peerDown.Add(1)
					}
					if timed {
						w.observe(j, time.Since(iterStart).Seconds())
					}
				}
				counts[w.id]++ // safe: one writer per index
			}
		}(w)
	}
	wg.Wait()
	cancel()
	<-monDone

	// Final consensus model: elementwise mean. Every worker goroutine has
	// exited, so nothing writes the replicas any more.
	avg := g.reps[0].Model.Clone()
	engine.AverageModelInto(avg, g.reps, make([]float64, avg.VectorLen()))
	loss, acc := avg.Evaluate(cfg.Test.X, cfg.Test.Labels)
	adopted := make([]int, m)
	for i, w := range workers {
		adopted[i] = w.version
	}
	var policies, evictions int
	if g.netMon != nil {
		policies, evictions = g.netMon.pub.Version, g.netMon.mon.Evictions()
	}
	return &Stats{
		IterationsPerWorker: counts,
		FinalAccuracy:       acc,
		FinalLoss:           loss,
		PolicyVersions:      policies,
		AdoptedVersions:     adopted,
		BytesOnWire:         wireBytes.Load(),
		Pulls:               pulls.Load(),
		PeerDownErrors:      peerDown.Load(),
		RejectedPulls:       rejected.Load(),
		Evictions:           evictions,
		Elapsed:             time.Since(start),
	}
}
