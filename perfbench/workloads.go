package main

import (
	"context"
	"fmt"
	"math"

	"netmax"
	"netmax/internal/core"
	"netmax/internal/live"
	"netmax/internal/transport"
)

// workloads maps each workload name to its constructor. Every workload is a
// scenario manifest generated from the seed; the seed fixes the data, the
// model initialization and the simulated network.
var workloads = map[string]func(seed int64) (bench, error){
	// The paper's workhorse setting (Sections V-B/V-C, the
	// cluster-resnet18-cifar10 scenario): NetMax on 8 workers of the
	// heterogeneous cluster with the moving slow link. Most host time goes
	// to gradient compute; policy generation at N=8 is cheap. Workers step
	// serially: concurrent stepping of same-timestamp events made the run
	// time follow the load on the host's other cores.
	"paper": func(seed int64) (bench, error) {
		return newEngine(fmt.Sprintf(`{"name": "perfbench-paper", "model": "ResNet18",
			"dataset": "CIFAR10", "workers": 8, "epochs": 4, "seed": %d, "parallelism": 1}`, seed))
	},
	// The Network Monitor's work in the paper's 16-worker setting (Section
	// V-F, the nonuniform-segments16-resnet18 scenario): one operation
	// regenerates the policy at each of the run's first controlPeriods
	// monitor periods, from the link times the heterogeneous network gives
	// at that period. Each regeneration solves 16 row LPs and a 16x16
	// eigenproblem per feasible grid candidate.
	"control16": func(seed int64) (bench, error) {
		return newPolicy(fmt.Sprintf(`{"name": "perfbench-control16", "model": "ResNet18",
			"dataset": "ImageNet", "workers": 16, "batch": 8, "partition": {"preset": "paper-16"},
			"seed": %d}`, seed))
	},
	// The scenario library's live-tcp-float32 group: 4 workers over
	// loopback TCP pulling float32-quantized models, with the wall-clock
	// monitor on the library's 200 ms period. The run is longer than the
	// library's 80 iterations so that it spans a few monitor periods and
	// the monitor regenerates the policy in every run. Codec, wire protocol
	// and goroutine scheduling on real sockets.
	"live-float32": func(seed int64) (bench, error) {
		return newLive(fmt.Sprintf(`{"name": "perfbench-live-float32", "runtime": "live", "model": "MobileNet",
			"dataset": "MNIST", "workers": 4, "seed": %d, "codec": {"name": "float32"},
			"live": {"transport": "tcp", "iterations": 3000, "ts_millis": 200}}`, seed))
	},
}

// controlPeriods is the number of monitor periods one control16 operation
// covers. The slow link moves every 2.5 periods, so the operation sees
// about ten placements and its cost does not hinge on one of them.
const controlPeriods = 25

// engineBench runs a discrete-event training run per operation. Set-up
// builds the run's configuration (data, partition, network schedule), which
// every run reuses.
type engineBench struct {
	m      *netmax.Scenario
	cfg    *netmax.Config
	runner func(*netmax.Config) *netmax.Result
	// ref is the first run that passed its checks; the engine is
	// deterministic, so every later run must reproduce it bitwise.
	ref *netmax.Result
}

func newEngine(manifest string) (*engineBench, error) {
	m, err := netmax.ParseScenario([]byte(manifest))
	if err != nil {
		return nil, err
	}
	return &engineBench{m: m}, nil
}

func (b *engineBench) setup() error {
	cfg, runner, err := b.m.BuildEngine()
	if err != nil {
		return err
	}
	b.cfg, b.runner = cfg, runner
	return nil
}

func (b *engineBench) run() (work, error) {
	r := b.runner(b.cfg)
	if b.ref == nil {
		init := b.cfg.Workers()[0].Model
		x, labels := b.cfg.Eval.Batch(0, b.cfg.Eval.Len())
		if err := checkTraining(r.FinalLoss, r.FinalAccuracy, init.Loss(x, labels).Item(), b.cfg.Eval.Classes); err != nil {
			return work{}, err
		}
		if r.GlobalSteps == 0 || r.BytesSent <= 0 {
			return work{}, fmt.Errorf("run did no work: %d steps, %d bytes", r.GlobalSteps, r.BytesSent)
		}
		b.ref = r
	} else if r.FinalLoss != b.ref.FinalLoss || r.FinalAccuracy != b.ref.FinalAccuracy ||
		r.TotalTime != b.ref.TotalTime || r.GlobalSteps != b.ref.GlobalSteps || r.BytesSent != b.ref.BytesSent {
		return work{}, fmt.Errorf("run differs from the first run on the same inputs (loss %v vs %v, virtual time %v vs %v)",
			r.FinalLoss, b.ref.FinalLoss, r.TotalTime, b.ref.TotalTime)
	}
	return work{
		gradSteps:  r.GlobalSteps,
		regens:     core.DebugRegens(),
		evalPoints: len(r.Curve),
		wireBytes:  r.BytesSent,
	}, nil
}

// policyBench regenerates communication policies as the Network Monitor
// does once a period. Set-up builds the cluster's configuration and the
// iteration-time matrix of every period.
type policyBench struct {
	m     *netmax.Scenario
	cfg   *netmax.Config
	times [][][]float64
	// ref holds the first operation's policies; generation is
	// deterministic, so every later operation must reproduce them.
	ref []*netmax.Policy
}

func newPolicy(manifest string) (*policyBench, error) {
	m, err := netmax.ParseScenario([]byte(manifest))
	if err != nil {
		return nil, err
	}
	return &policyBench{m: m}, nil
}

func (b *policyBench) setup() error {
	cfg, _, err := b.m.BuildEngine()
	if err != nil {
		return err
	}
	ts := b.m.Resolved().NetMax.TsSecs
	b.cfg, b.times = cfg, nil
	for k := 1; k <= controlPeriods; k++ {
		b.times = append(b.times, linkTimes(cfg, float64(k)*ts))
	}
	return nil
}

func (b *policyBench) run() (work, error) {
	for k, times := range b.times {
		pol, err := netmax.GeneratePolicy(times, b.cfg.Net.Topo.Adj, b.cfg.LR)
		if err != nil {
			return work{}, err
		}
		if len(b.ref) <= k {
			if err := checkRows(pol.P); err != nil {
				return work{}, err
			}
			b.ref = append(b.ref, pol)
		} else if pol.Rho != b.ref[k].Rho || pol.TBar != b.ref[k].TBar || pol.Lambda2 != b.ref[k].Lambda2 {
			return work{}, fmt.Errorf("policy %d differs from the first one generated from the same times", k)
		}
	}
	return work{regens: len(b.times)}, nil
}

// linkTimes returns the iteration time of every link at virtual time t, the
// matrix the Network Monitor collects from the workers.
func linkTimes(cfg *netmax.Config, t float64) [][]float64 {
	m := cfg.Net.Topo.M
	times := make([][]float64, m)
	for i := range times {
		times[i] = make([]float64, m)
		for j := range times[i] {
			if i != j {
				times[i][j] = cfg.Net.IterationTime(i, j, cfg.WireBytes(), cfg.ComputeSecs(i), t, cfg.Overlap)
			}
		}
	}
	return times
}

// liveBench runs a live process group per operation, as netmax-scenario run
// does: a fresh TCP hub, live.Run, and closing the hub. Set-up builds the
// group's configuration (data and partition), which every run reuses.
type liveBench struct {
	m   *netmax.Scenario
	cfg live.Config
	// Filled by the first run: the encoded size of one pull and the test
	// loss of the initial model.
	pullBytes int64
	initLoss  float64
}

func newLive(manifest string) (*liveBench, error) {
	m, err := netmax.ParseScenario([]byte(manifest))
	if err != nil {
		return nil, err
	}
	return &liveBench{m: m}, nil
}

func (b *liveBench) setup() error {
	// BuildLive also opens a TCP hub; a hub serves one run only, so it is
	// closed here and each run opens its own.
	cfg, _, closeHub, err := b.m.BuildLive()
	if err != nil {
		return err
	}
	b.cfg = cfg
	return closeHub()
}

func (b *liveBench) run() (work, error) {
	cfg := b.cfg
	shard := cfg.Part.Shards[0]
	if b.pullBytes == 0 {
		init := cfg.Spec.Build(cfg.Seed, shard.Dim(), shard.Classes)
		x, labels := cfg.Test.Batch(0, cfg.Test.Len())
		b.pullBytes = cfg.Codec.WireBytes(init.VectorLen())
		b.initLoss = init.Loss(x, labels).Item()
	}
	hub, err := transport.NewTCPHub()
	if err != nil {
		return work{}, err
	}
	s := live.Run(context.Background(), cfg, hub)
	if err := hub.Close(); err != nil {
		return work{}, err
	}
	steps := 0
	for i, n := range s.IterationsPerWorker {
		if n != cfg.Iterations {
			return work{}, fmt.Errorf("worker %d ran %d iterations, want %d", i, n, cfg.Iterations)
		}
		steps += n
	}
	if s.PeerDownErrors != 0 {
		return work{}, fmt.Errorf("%d pulls failed on a healthy group", s.PeerDownErrors)
	}
	if s.Pulls == 0 || s.BytesOnWire != s.Pulls*b.pullBytes {
		return work{}, fmt.Errorf("%d bytes on wire for %d pulls, want %d per pull", s.BytesOnWire, s.Pulls, b.pullBytes)
	}
	if err := checkTraining(s.FinalLoss, s.FinalAccuracy, b.initLoss, shard.Classes); err != nil {
		return work{}, err
	}
	return work{
		gradSteps: steps,
		regens:    s.PolicyVersions,
		// The group evaluates its averaged model once, at the end.
		evalPoints: 1,
		tcpPulls:   s.Pulls,
		wireBytes:  s.BytesOnWire,
	}, nil
}

// checkTraining accepts a run whose consensus model learned: its loss fell
// well below the initial model's and its accuracy is at least twice chance.
func checkTraining(loss, acc, initLoss float64, classes int) error {
	if math.IsNaN(loss) || math.IsInf(loss, 0) || loss > 0.8*initLoss {
		return fmt.Errorf("final loss %v, initial %v: the model did not train", loss, initLoss)
	}
	if acc < 2/float64(classes) {
		return fmt.Errorf("final accuracy %v is below twice chance for %d classes", acc, classes)
	}
	return nil
}

// checkRows verifies a policy matrix is row-stochastic.
func checkRows(p [][]float64) error {
	for i, row := range p {
		sum := 0.0
		for j, v := range row {
			if v < -1e-9 {
				return fmt.Errorf("policy p[%d][%d] = %v is negative", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("policy row %d sums to %v", i, sum)
		}
	}
	return nil
}
