package scenario

import (
	"fmt"
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

// BuildEngine translates an engine-runtime manifest into a ready-to-run
// engine.Config plus the algorithm runner that executes it. It is the one
// constructor of engine configurations: the paper experiments, the
// examples, the public API and the scenario tools all build their runs
// here. The manifest is resolved first, so callers may pass either raw or
// resolved manifests. TestManifestMatchesFlagPathBitwise keeps a
// hand-assembled configuration as the reference this construction must
// match bitwise (same constructors, argument order and RNG consumption).
func (m *Manifest) BuildEngine() (*engine.Config, func(*engine.Config) *engine.Result, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	r := m.Resolved()
	if r.Runtime != "engine" {
		return nil, nil, fmt.Errorf("scenario %q: BuildEngine on runtime %q", r.Name, r.Runtime)
	}
	spec, err := nn.SpecByName(r.Model)
	if err != nil {
		return nil, nil, err
	}
	ds, err := data.SpecByName(r.Dataset)
	if err != nil {
		return nil, nil, err
	}
	train, test := ds.Generate(*r.DataSeed)
	part, err := r.buildPartition(train)
	if err != nil {
		return nil, nil, err
	}
	net, err := r.buildNetwork()
	if err != nil {
		return nil, nil, err
	}
	cdc, err := r.buildCodec()
	if err != nil {
		return nil, nil, err
	}
	failures, err := r.buildFailures()
	if err != nil {
		return nil, nil, err
	}
	evalN := 400
	if evalN > train.Len() {
		evalN = train.Len()
	}
	idx := make([]int, evalN)
	for i := range idx {
		idx[i] = i
	}
	cfg := &engine.Config{
		Spec:         spec,
		Part:         part,
		Eval:         train.Slice(idx),
		Test:         test,
		Net:          net,
		LR:           r.LR,
		Batch:        r.Batch,
		Epochs:       r.Epochs,
		Seed:         r.Seed,
		Overlap:      *r.Overlap,
		LRDecayEpoch: r.LRDecayEpoch,
		ComputeScale: r.buildComputeScale(),
		Parallelism:  r.Parallelism,
		Codec:        cdc,
		Failures:     failures,
	}
	run, err := r.engineRunner()
	if err != nil {
		return nil, nil, err
	}
	return cfg, run, nil
}

// engineRunner maps the manifest's algorithm name onto its runner.
func (r *Manifest) engineRunner() (func(*engine.Config) *engine.Result, error) {
	switch r.Algorithm {
	case "netmax":
		opts := r.coreOptions()
		return func(cfg *engine.Config) *engine.Result { return core.Run(cfg, opts) }, nil
	case "adpsgd-monitor":
		opts := r.coreOptions()
		return func(cfg *engine.Config) *engine.Result { return core.RunADPSGDMonitor(cfg, opts) }, nil
	case "adpsgd":
		return baselines.RunADPSGD, nil
	case "saps":
		return baselines.RunSAPS, nil
	case "hop":
		st := r.HopStaleness
		return func(cfg *engine.Config) *engine.Result { return baselines.RunHop(cfg, st) }, nil
	case "allreduce":
		return baselines.RunAllreduce, nil
	case "dpsgd":
		return baselines.RunSyncDPSGD, nil
	case "prague":
		return baselines.RunPrague, nil
	case "ps-sync":
		return baselines.RunPSSync, nil
	case "ps-async":
		return baselines.RunPSAsync, nil
	}
	return nil, fmt.Errorf("scenario %q: unknown algorithm %q", r.Name, r.Algorithm)
}

// coreOptions converts the resolved NetMax block, which Resolved fills in
// for every algorithm that runs the monitor on either runtime, into
// core.Options.
func (r *Manifest) coreOptions() core.Options {
	nm := r.NetMax
	return core.Options{
		Ts:            nm.TsSecs,
		Beta:          nm.Beta,
		PolicyRounds:  nm.PolicyRounds,
		UniformPolicy: nm.UniformPolicy,
		StalePeriods:  nm.StalePeriods,
	}
}

// buildTopology materializes the topology spec.
func (r *Manifest) buildTopology() (*simnet.Topology, error) {
	t := r.Topology
	switch t.Kind {
	case "paper-cluster":
		return simnet.PaperCluster(r.Workers), nil
	case "single-machine":
		return simnet.SingleMachine(r.Workers), nil
	case "ring":
		topo := simnet.SingleMachine(r.Workers)
		topo.Adj = simnet.Ring(r.Workers)
		return topo, nil
	case "cross-region":
		// The cross-region network carries its own six-region topology.
		return nil, nil
	}
	return nil, fmt.Errorf("scenario %q: unknown topology kind %q", r.Name, t.Kind)
}

// buildNetwork materializes the network spec.
func (r *Manifest) buildNetwork() (*simnet.Network, error) {
	n := r.Network
	if n.Kind == "cross-region" {
		return simnet.NewCrossRegion(), nil
	}
	topo, err := r.buildTopology()
	if err != nil {
		return nil, err
	}
	seed := r.Seed
	if n.Seed != nil {
		seed = *n.Seed
	}
	switch n.Kind {
	case "heterogeneous":
		return simnet.NewHeterogeneousPeriod(topo, seed, DefaultHorizon, n.PeriodSecs), nil
	case "homogeneous":
		return simnet.NewHomogeneous(topo), nil
	case "static":
		return simnet.NewStatic(topo), nil
	case "shuffled":
		return simnet.NewShuffledRates(topo, seed, DefaultHorizon, n.PeriodSecs), nil
	}
	return nil, fmt.Errorf("scenario %q: unknown network kind %q", r.Name, n.Kind)
}

// buildPartition materializes the partition spec over the training set,
// drawing with the data seed.
func (r *Manifest) buildPartition(train *data.Dataset) (*data.Partition, error) {
	p := r.Partition
	switch p.Kind {
	case "uniform":
		return data.Uniform(train, r.Workers, *r.DataSeed), nil
	case "segments":
		return data.Segments(train, p.Segments, *r.DataSeed), nil
	case "label-skew":
		return data.LabelSkew(train, p.LostLabels, *r.DataSeed), nil
	}
	return nil, fmt.Errorf("scenario %q: unknown partition kind %q", r.Name, p.Kind)
}

// buildCodec materializes the codec spec; nil means no codec (the engine's
// uncompressed float32-on-the-wire bandwidth model).
func (r *Manifest) buildCodec() (codec.Codec, error) {
	c := r.Codec
	if c == nil {
		return nil, nil
	}
	return codec.ByName(c.Name)
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
// spec yields a nil schedule (the bitwise failure-free path).
func (r *Manifest) buildFailures() (*simnet.FailureSchedule, error) {
	f := r.Failures
	if f == nil {
		return nil, nil
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
		default:
			return nil, fmt.Errorf("scenario %q: unknown failure kind %q", r.Name, ev.Kind)
		}
	}
	return s, nil
}

// BuildLive translates a live-runtime manifest into a live.Config plus a
// transport hub: in-memory for transport "local", loopback sockets for
// "tcp". The returned closer releases the hub's servers and connections
// and must be called after the run.
func (m *Manifest) BuildLive() (live.Config, *transport.Hub, func() error, error) {
	noop := func() error { return nil }
	if err := m.Validate(); err != nil {
		return live.Config{}, nil, noop, err
	}
	r := m.Resolved()
	if r.Runtime != "live" {
		return live.Config{}, nil, noop, fmt.Errorf("scenario %q: BuildLive on runtime %q", r.Name, r.Runtime)
	}
	spec, err := nn.SpecByName(r.Model)
	if err != nil {
		return live.Config{}, nil, noop, err
	}
	ds, err := data.SpecByName(r.Dataset)
	if err != nil {
		return live.Config{}, nil, noop, err
	}
	train, test := ds.Generate(*r.DataSeed)
	part, err := r.buildPartition(train)
	if err != nil {
		return live.Config{}, nil, noop, err
	}
	cdc, err := r.buildCodec()
	if err != nil {
		return live.Config{}, nil, noop, err
	}
	failures, err := r.buildFailures()
	if err != nil {
		return live.Config{}, nil, noop, err
	}
	l := r.Live
	opts := r.coreOptions()
	opts.Ts = float64(l.TsMillis) / 1000
	// A negative manifest pull timeout disables the deadline, which
	// live.Config encodes as zero.
	cfg := live.Config{
		Spec:        spec,
		Part:        part,
		Test:        test,
		LR:          r.LR,
		Batch:       r.Batch,
		Seed:        r.Seed,
		NetMax:      opts,
		Duration:    time.Duration(l.DurationSecs * float64(time.Second)),
		Iterations:  l.Iterations,
		Codec:       cdc,
		PullTimeout: time.Duration(max(l.PullTimeoutSecs, 0) * float64(time.Second)),
		Failures:    failures,
	}
	if l.Transport == "tcp" {
		hub, err := transport.NewTCPHub()
		if err != nil {
			return live.Config{}, nil, noop, fmt.Errorf("scenario %q: tcp hub: %w", r.Name, err)
		}
		return cfg, hub, hub.Close, nil
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
	hub := transport.NewLocalHub(latency)
	return cfg, hub, hub.Close, nil
}
