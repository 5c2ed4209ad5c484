// Package netmax is a from-scratch Go reproduction of "Communication-
// efficient Decentralized Machine Learning over Heterogeneous Networks"
// (Zhou et al., ICDE 2021): the NetMax consensus-SGD algorithm, its Network
// Monitor and communication-policy generator, the decentralized and
// centralized baselines it is evaluated against, and a discrete-event
// heterogeneous-network simulator that regenerates every table and figure
// of the paper's evaluation.
//
// Every run is described by a Scenario manifest; BuildEngine turns it into
// a ready-to-run Config (the zero manifest is ResNet18 on CIFAR10 across the
// paper's 8-worker heterogeneous cluster). Quick start:
//
//	sc := &netmax.Scenario{Name: "quickstart", Epochs: 40, LRDecayEpoch: 28}
//	cfg, run, err := sc.BuildEngine()
//	if err != nil {
//		log.Fatal(err)
//	}
//	result := run(cfg)
//	fmt.Println(result.FinalAccuracy, result.TotalTime)
//
// The manifest's Algorithm picks the runner (NetMax by default, or any of
// the baselines it is compared against), its NetMax block tunes the
// Network Monitor, and its Failures block injects churn.
//
// cmd/netmax-scenario runs the checked-in manifests and suites under
// scenarios/, and cmd/netmax-bench regenerates the paper's tables and
// figures by experiment id.
//
// # Performance
//
// Host parallelism is one process-wide budget of helper goroutines, and it
// is bitwise deterministic, so results are identical at any setting and
// only wall-clock changes. Independent runs fan out side by side
// (cmd/netmax-bench -all, a figure's algorithms, replicated seeds, a
// suite's members), and the synchronous baselines (Allreduce-SGD, PS-syn,
// D-PSGD) compute a round's gradients concurrently, further capped by
// Config.Parallelism; every fan-out draws from the same budget, so nesting
// never multiplies concurrency. Everything else runs on the calling
// goroutine: the asynchronous engine steps one event at a time and tensor
// kernels are single-threaded. The matmul kernel is AVX-512 or AVX2
// assembly on amd64 CPUs that have it, with a pure-Go fallback of the same
// form elsewhere. Each vector lane is one output element that adds its
// products in the scalar loop's order, multiplying and adding in separate
// instructions, so results are bitwise identical on every kernel. The
// model's forward and backward pass is written out by hand over its
// layer chain and reuses buffers the model owns, so a warm training step
// allocates nothing. cmd/netmax-bench -par sizes the budget and
// -bench-out records the perf trajectory (see BENCH_baseline.json /
// BENCH_pr1.json and README.md for the compute core).
package netmax

import (
	"netmax/internal/engine"
	"netmax/internal/experiments"
	"netmax/internal/policy"
	"netmax/internal/scenario"
)

// Config describes one training run (model, data partition, network,
// hyper-parameters). See engine.Config for field documentation.
type Config = engine.Config

// Result aggregates the metrics of a run: loss curve, accuracy, virtual
// wall-clock, and the computation/communication cost decomposition.
type Result = engine.Result

// Point is one sample of a training curve.
type Point = engine.Point

// Policy is a generated communication policy (P, rho, lambda2, predicted
// convergence time).
type Policy = policy.Policy

// GeneratePolicy runs Algorithm 3 directly on an iteration-time matrix:
// times[i][m] is worker i's measured iteration time against neighbor m, adj
// is the communication graph, alpha the SGD learning rate.
func GeneratePolicy(times [][]float64, adj [][]bool, alpha float64) (*Policy, error) {
	return policy.Generate(policy.Input{Times: times, Adj: adj, Alpha: alpha})
}

// Experiment regenerates a paper table/figure by id (fig3..fig19, tab2,
// tab3, tab5, abl-*); see cmd/netmax-bench -list.
func Experiment(id string, seed int64, quick bool) (*experiments.Result, error) {
	return experiments.Run(id, experiments.Options{Seed: seed, Quick: quick})
}

// Scenario is a declarative manifest fully describing a run — runtime,
// algorithm, topology, network dynamics, partitioning, heterogeneity,
// failure schedule, codec, seeds. See internal/scenario and the checked-in
// library under scenarios/.
type Scenario = scenario.Manifest

// ScenarioReport is the outcome of one scenario run: the resolved manifest
// that actually ran plus the engine result or live stats.
type ScenarioReport = scenario.Report

// ScenarioRunOptions tunes RunScenario and RunSuite (quick overrides,
// output directory).
type ScenarioRunOptions = scenario.RunOptions

// LoadScenario reads, parses and validates a scenario manifest file;
// ParseScenario does the same from bytes. Both reject unknown fields.
var (
	LoadScenario  = scenario.Load
	ParseScenario = scenario.Parse
)

// RunScenario executes a manifest end to end and, when an output directory
// is configured, writes the fully-resolved manifest next to the results so
// the run is reproducible from one file.
func RunScenario(m *Scenario, opt ScenarioRunOptions) (*ScenarioReport, error) {
	return scenario.Run(m, opt)
}

// Suite is a declarative comparison: one JSON document describing N runs,
// either an explicit member list or a base manifest expanded over a grid of
// algorithm arms, codec arms and replication seeds. See internal/scenario
// and the suite-*.json files under scenarios/.
type Suite = scenario.Suite

// SuiteReport is the outcome of a suite run: the resolved explicit run
// list, the per-member reports, and the joint per-arm mean +/- stddev
// table.
type SuiteReport = scenario.SuiteReport

// SuiteTable is the joint comparison table of a suite run (the suite.json
// schema): one row per arm, metrics summarized as mean +/- sample stddev.
type SuiteTable = scenario.SuiteTable

// LoadSuite reads, parses and validates a suite file (member paths resolve
// relative to it); ParseSuite does the same from bytes. Both reject
// unknown fields and validate every run the suite expands to.
var (
	LoadSuite  = scenario.LoadSuite
	ParseSuite = scenario.ParseSuite
)

// RunSuite executes a suite end to end, each member at the scale opt
// picks, and, when an output directory is configured, writes the explicit
// run list that ran (resolved-suite.json) and the joint table (suite.json)
// next to the per-run outputs, so a multi-arm multi-seed comparison is
// reproducible — bitwise, on the engine runtime — from one file. Members
// run side by side, as many as the process-wide host budget allows
// (GOMAXPROCS unless a command's -par sizes it smaller).
func RunSuite(s *Suite, opt ScenarioRunOptions) (*SuiteReport, error) {
	return scenario.RunSuite(s, opt)
}
