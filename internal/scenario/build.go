package scenario

import (
	"fmt"
	"strings"
	"time"

	"netmax/internal/baselines"
	"netmax/internal/codec"
	"netmax/internal/core"
	"netmax/internal/data"
	"netmax/internal/engine"
	"netmax/internal/live"
	"netmax/internal/nn"
	"netmax/internal/simnet"
	"netmax/internal/transport"
)

// runFunc runs one algorithm over a built engine configuration.
type runFunc = func(*engine.Config) *engine.Result

// algorithm is one entry of the algorithm table: how a kind runs and which
// manifest settings it reads. Validation, the builders and suite expansion
// all read a kind's properties here.
type algorithm struct {
	kind   string
	newRun func(p *prepared) runFunc // the engine runner of a built manifest
	// codecFailures: the kind runs on engine.RunAsync, the only engine loop
	// that reads a codec or a failure schedule, and takes both.
	codecFailures bool
	parallelism   bool // computes a synchronous round's gradients concurrently
	netmax        bool // runs the Network Monitor: reads the netmax block
	hopStaleness  bool // takes hop_staleness
	live          bool // also runs on the live runtime
}

// fixed is the runner constructor of a kind that reads no manifest setting.
func fixed(run runFunc) func(*prepared) runFunc {
	return func(*prepared) runFunc { return run }
}

// algorithms is the algorithm table, in the order error messages list it.
var algorithms = []algorithm{
	{kind: "netmax", codecFailures: true, netmax: true, live: true, newRun: func(p *prepared) runFunc {
		return func(cfg *engine.Config) *engine.Result { return core.Run(cfg, p.opts) }
	}},
	{kind: "adpsgd", codecFailures: true, newRun: fixed(core.RunADPSGD)},
	{kind: "adpsgd-monitor", codecFailures: true, netmax: true, newRun: func(p *prepared) runFunc {
		return func(cfg *engine.Config) *engine.Result { return core.RunADPSGDMonitor(cfg, p.opts) }
	}},
	{kind: "saps", codecFailures: true, newRun: fixed(baselines.RunSAPS)},
	{kind: "hop", codecFailures: true, hopStaleness: true, newRun: func(p *prepared) runFunc {
		return func(cfg *engine.Config) *engine.Result { return baselines.RunHop(cfg, p.r.HopStaleness) }
	}},
	{kind: "allreduce", parallelism: true, newRun: fixed(baselines.RunAllreduce)},
	{kind: "dpsgd", parallelism: true, newRun: fixed(baselines.RunSyncDPSGD)},
	{kind: "prague", newRun: fixed(baselines.RunPrague)},
	{kind: "ps-sync", parallelism: true, newRun: fixed(baselines.RunPSSync)},
	{kind: "ps-async", newRun: fixed(baselines.RunPSAsync)},
}

// lookupAlgorithm returns the table entry of kind; an unknown kind gets the
// zero entry, which takes nothing.
func lookupAlgorithm(kind string) (algorithm, bool) {
	for _, a := range algorithms {
		if a.kind == kind {
			return a, true
		}
	}
	return algorithm{}, false
}

// algorithmsWhere lists, in table order, the kinds for which has holds.
func algorithmsWhere(has func(algorithm) bool) string {
	var kinds []string
	for _, a := range algorithms {
		if has(a) {
			kinds = append(kinds, a.kind)
		}
	}
	return strings.Join(kinds, ", ")
}

// anyAlgorithm makes algorithmsWhere list every kind.
func anyAlgorithm(algorithm) bool { return true }

// prepared is one manifest made ready to run: validated and resolved once,
// with what both runtimes read built from it.
type prepared struct {
	r           *Manifest
	algo        algorithm
	spec        nn.ModelSpec
	train, test *data.Dataset
	part        *data.Partition
	codec       codec.Codec
	failures    *simnet.FailureSchedule
	opts        core.Options
}

// prepare validates and resolves m, then builds the model spec, the data,
// its partition, the codec and the failure schedule, and copies the netmax
// block (zero without one).
func (m *Manifest) prepare() (*prepared, error) {
	r, err := m.resolveForms()
	if err != nil {
		return nil, err
	}
	// Validation has checked every name and kind looked up from here on,
	// so neither the lookups nor the builders can fail.
	p := &prepared{r: r}
	p.algo, _ = lookupAlgorithm(r.Algorithm)
	p.spec, _ = nn.SpecByName(r.Model)
	ds, _ := data.SpecByName(r.Dataset)
	p.train, p.test = ds.Generate(*r.DataSeed)
	p.part = r.buildPartition(p.train)
	// Validation cannot see this: the shard sizes depend on the generated
	// data. A worker with no rows has no batch to draw.
	for i, shard := range p.part.Shards {
		if shard.Len() == 0 {
			return nil, fmt.Errorf("scenario %q: worker %d gets no training rows under the %s partition of %s",
				r.Name, i, r.Partition.Kind, r.Dataset)
		}
	}
	if r.Codec != nil {
		p.codec, _ = codec.ByName(r.Codec.Name)
	}
	p.failures = r.buildFailures()
	if r.NetMax != nil {
		p.opts = *r.NetMax
	}
	// A live monitor's period is live.ts_millis in wall-clock seconds.
	if r.Runtime == "live" {
		p.opts.TsSecs = float64(r.Live.TsMillis) / 1000
	}
	return p, nil
}

// BuildEngine translates an engine-runtime manifest into a ready-to-run
// engine.Config plus the algorithm runner that executes it. It is the one
// constructor of engine configurations: the paper experiments, the public
// API and the scenario tools all build their runs here. The manifest is
// validated and resolved first, so callers may pass either raw or resolved
// manifests. TestManifestMatchesFlagPathBitwise keeps a hand-assembled
// configuration as the reference this construction must match bitwise
// (same constructors, argument order and RNG consumption).
func (m *Manifest) BuildEngine() (*engine.Config, func(*engine.Config) *engine.Result, error) {
	p, err := m.prepare()
	if err != nil {
		return nil, nil, err
	}
	if p.r.Runtime != "engine" {
		return nil, nil, fmt.Errorf("scenario %q: BuildEngine on runtime %q", p.r.Name, p.r.Runtime)
	}
	cfg, run := p.engine()
	return cfg, run, nil
}

// engine builds the engine configuration and the algorithm's runner.
func (p *prepared) engine() (*engine.Config, runFunc) {
	r := p.r
	cfg := &engine.Config{
		Spec:         p.spec,
		Part:         p.part,
		Eval:         p.train.Head(min(400, p.train.Len())),
		Test:         p.test,
		Net:          r.buildNetwork(),
		LR:           r.LR,
		Batch:        r.Batch,
		Epochs:       r.Epochs,
		Seed:         r.Seed,
		Overlap:      *r.Overlap,
		LRDecayEpoch: r.LRDecayEpoch,
		ComputeScale: r.buildComputeScale(),
		Parallelism:  r.Parallelism,
		Codec:        p.codec,
		Failures:     p.failures,
	}
	return cfg, p.algo.newRun(p)
}

// buildTopology materializes the topology spec. The cross-region topology
// never gets here: the cross-region network carries its own.
func (r *Manifest) buildTopology() *simnet.Topology {
	switch r.Topology.Kind {
	case "single-machine":
		return simnet.SingleMachine(r.Workers)
	case "ring":
		topo := simnet.SingleMachine(r.Workers)
		topo.Adj = simnet.Ring(r.Workers)
		return topo
	}
	return simnet.PaperCluster(r.Workers)
}

// buildNetwork materializes the network spec.
func (r *Manifest) buildNetwork() *simnet.Network {
	n := r.Network
	if n.Kind == "cross-region" {
		return simnet.NewCrossRegion()
	}
	topo := r.buildTopology()
	switch n.Kind {
	case "homogeneous":
		return simnet.NewHomogeneous(topo)
	case "static":
		return simnet.NewStatic(topo)
	case "shuffled":
		return simnet.NewShuffledRates(topo, *n.Seed, DefaultHorizon, n.PeriodSecs)
	}
	return simnet.NewHeterogeneousPeriod(topo, *n.Seed, DefaultHorizon, n.PeriodSecs)
}

// buildPartition materializes the partition spec over the training set,
// drawing with the data seed.
func (r *Manifest) buildPartition(train *data.Dataset) *data.Partition {
	p := r.Partition
	switch p.Kind {
	case "segments":
		return data.Segments(train, p.Segments, *r.DataSeed)
	case "label-skew":
		return data.LabelSkew(train, p.LostLabels, *r.DataSeed)
	}
	return data.Uniform(train, r.Workers, *r.DataSeed)
}

// buildComputeScale materializes the straggler as per-worker multipliers.
func (r *Manifest) buildComputeScale() []float64 {
	c := r.Compute
	if c == nil {
		return nil
	}
	scale := make([]float64, r.Workers)
	for i := range scale {
		scale[i] = 1
	}
	scale[c.Worker] = c.Factor
	return scale
}

// buildFailures materializes the failure spec into a simnet schedule; a nil
// spec yields none, and the runtimes then run on an empty schedule.
func (r *Manifest) buildFailures() *simnet.FailureSchedule {
	f := r.Failures
	if f == nil {
		return nil
	}
	s := simnet.NewFailureSchedule()
	s.DetectSecs = f.DetectSecs
	if rc := f.RandomChurn; rc != nil {
		churn := simnet.NewRandomChurn(r.Workers, r.Seed, rc.HorizonSecs, rc.CrashesPerWorker, rc.MeanDownSecs)
		for _, ev := range churn.Events() {
			s.Crash(ev.Worker, ev.Start, ev.End)
		}
	}
	for _, ev := range f.Events {
		switch ev.Kind {
		case "crash":
			s.Crash(ev.Worker, ev.At, ev.Rejoin)
		case "hang":
			s.Hang(ev.Worker, ev.At, ev.Until)
		case "leave":
			s.Leave(ev.Worker, ev.At)
		case "blackout":
			s.Blackout(ev.A, ev.B, ev.At, ev.Until)
		}
	}
	return s
}

// BuildLive translates a live-runtime manifest into a live.Config plus a
// transport hub on loopback TCP. Both live.transport spellings open the
// same hub, transport.NewLocalHub with the manifest's latency (nil without
// a latency block); they differ only in that "tcp" admits no latency
// block. The returned closer releases the hub's servers and connections
// and must be called after the run.
func (m *Manifest) BuildLive() (live.Config, *transport.Hub, func() error, error) {
	p, err := m.prepare()
	if err != nil {
		return live.Config{}, nil, closeNothing, err
	}
	if p.r.Runtime != "live" {
		return live.Config{}, nil, closeNothing, fmt.Errorf("scenario %q: BuildLive on runtime %q", p.r.Name, p.r.Runtime)
	}
	cfg, hub := p.live()
	return cfg, hub, hub.Close, nil
}

// closeNothing is the closer BuildLive returns when it builds no hub.
func closeNothing() error { return nil }

// live builds the live configuration and its transport hub.
func (p *prepared) live() (live.Config, *transport.Hub) {
	r, l := p.r, p.r.Live
	cfg := live.Config{
		Spec:        p.spec,
		Part:        p.part,
		Test:        p.test,
		LR:          r.LR,
		Batch:       r.Batch,
		Seed:        r.Seed,
		NetMax:      p.opts,
		Duration:    time.Duration(l.DurationSecs * float64(time.Second)),
		Iterations:  l.Iterations,
		Codec:       p.codec,
		PullTimeout: DefaultPullTimeout,
		Failures:    p.failures,
	}
	var latency func(i, j int) time.Duration
	if lat := l.Latency; lat != nil {
		colocated, intra, inter := lat.Colocated, lat.IntraMillis, lat.InterMillis
		latency = func(i, j int) time.Duration {
			if (i < colocated) == (j < colocated) {
				return time.Duration(intra * float64(time.Millisecond))
			}
			return time.Duration(inter * float64(time.Millisecond))
		}
	}
	return cfg, transport.NewLocalHub(latency)
}
