// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V and Appendices F-G) on the simulated substrate.
//
// Each experiment id (fig3, fig5, ..., tab2, ..., fig19, plus the abl-*
// ablations) maps to a function that describes each of its runs as a
// scenario manifest, builds and runs it through scenario.BuildEngine (the
// same path as the checked-in scenario library), and returns the same
// rows/series the paper reports. Absolute numbers differ — the substrate is
// a simulator, not the authors' GPU cluster — but the shapes (who wins, by
// roughly what factor, where crossovers fall) are the reproduction target;
// each Result carries expected-vs-measured notes inline.
package experiments

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"netmax/internal/engine"
	"netmax/internal/scenario"
)

// Options tunes an experiment run.
type Options struct {
	// Seed drives dataset generation, model init and all stochastic
	// decisions; each experiment is deterministic given (id, Options).
	Seed int64
	// Quick shrinks epochs/node counts ~4x for smoke runs and benchmarks.
	Quick bool
}

// Result is a regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Curves holds the per-series points for figure experiments
	// (loss/accuracy versus time and/or epochs), keyed by series label.
	Curves map[string][]engine.Point
	// Notes records shape checks and derived quantities (speedups etc.).
	Notes []string
}

// Runner regenerates one experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

var registry []Runner

func register(id, title string, run func(Options) (*Result, error)) {
	registry = append(registry, Runner{ID: id, Title: title, Run: run})
}

// All returns the registered experiments sorted by id.
func All() []Runner {
	out := append([]Runner(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Run regenerates the experiment with the given id.
func Run(id string, opt Options) (*Result, error) {
	for _, r := range registry {
		if r.ID == id {
			return r.Run(opt)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (use one of %v)", id, ids())
}

func ids() []string {
	var out []string
	for _, r := range All() {
		out = append(out, r.ID)
	}
	return out
}

// ---- shared run construction ----

// paperRun returns the manifest every paper run starts from: ResNet18 on
// CIFAR10 across the Section V-A heterogeneous cluster, with overlap on.
// Data and partition are seeded Seed+1, the model Seed+3 and the network's
// dynamics Seed+5 unless the figure picks another network seed. Figures set
// the rest.
func paperRun(id string, opt Options) *scenario.Manifest {
	return &scenario.Manifest{
		Name:     id,
		Seed:     opt.Seed + 3,
		DataSeed: ptr(opt.Seed + 1),
		Network:  &scenario.NetworkSpec{Kind: "heterogeneous", Seed: ptr(opt.Seed + 5)},
	}
}

// onSwitch moves a run onto the Section V-A homogeneous network: every
// worker on one server behind a 10 Gbps virtual switch.
func onSwitch(m *scenario.Manifest) {
	m.Topology = &scenario.TopologySpec{Kind: "single-machine"}
	m.Network = &scenario.NetworkSpec{Kind: "homogeneous"}
}

func ptr[T any](v T) *T { return &v }

// run builds the manifest's engine configuration and runs its algorithm.
func run(m *scenario.Manifest) (*engine.Result, error) {
	cfg, runner, err := m.BuildEngine()
	if err != nil {
		return nil, err
	}
	return runner(cfg), nil
}

// runAll runs each named algorithm on a copy of m. Runs execute
// concurrently under the bounded-parallelism driver; each builds its own
// data, network and workers, and every run is internally deterministic, so
// results land in the given order regardless of scheduling.
func runAll(m *scenario.Manifest, algos ...string) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(algos))
	errs := make([]error, len(algos))
	engine.Concurrently(len(algos), 0, func(k int) {
		a := *m
		a.Algorithm = algos[k]
		out[k], errs[k] = run(&a)
	})
	return out, errors.Join(errs...)
}

// clusterAlgos is the comparison set of Sections V-B..V-F, in the paper's
// reporting order.
var clusterAlgos = []string{"prague", "allreduce", "adpsgd", "netmax"}

func scaleEpochs(full int, opt Options) int {
	if opt.Quick {
		q := full / 4
		if q < 3 {
			q = 3
		}
		return q
	}
	return full
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// lossTarget picks a loss threshold reachable by all runs: 10% above the
// worst final loss.
func lossTarget(rs []*engine.Result) float64 {
	worst := 0.0
	for _, r := range rs {
		if r.FinalLoss > worst {
			worst = r.FinalLoss
		}
	}
	return worst * 1.1
}

// A col renders one cell of a convergence-race row from a run and the
// race's loss target.
type col func(r *engine.Result, target float64) string

func totalTime(r *engine.Result, _ float64) string      { return f1(r.TotalTime) }
func epochsToTarget(r *engine.Result, t float64) string { return f1(r.EpochToLoss(t)) }
func timeToTarget(r *engine.Result, t float64) string   { return f1(r.TimeToLoss(t)) }
func finalLoss(r *engine.Result, _ float64) string      { return fmt.Sprintf("%.3f", r.FinalLoss) }
func accuracy(r *engine.Result, _ float64) string       { return pct(r.FinalAccuracy) }

// race runs a convergence race: each named algorithm on a copy of m
// (runAll), against a loss target every run reaches (lossTarget). Each run
// adds one row to res, made of labels, the run's algorithm and one cell per
// col, and its curve, keyed by labels and the algorithm joined with "/". It
// returns the runs and the target.
func race(res *Result, m *scenario.Manifest, algos, labels []string, cols ...col) ([]*engine.Result, float64, error) {
	rs, err := runAll(m, algos...)
	if err != nil {
		return nil, 0, err
	}
	target := lossTarget(rs)
	if res.Curves == nil {
		res.Curves = map[string][]engine.Point{}
	}
	for _, r := range rs {
		row := append(slices.Clone(labels), r.Algo)
		res.Curves[strings.Join(row, "/")] = r.Curve
		for _, c := range cols {
			row = append(row, c(r, target))
		}
		res.Rows = append(res.Rows, row)
	}
	return rs, target, nil
}

// speedups returns note(algo, x) for each other run that reached target,
// x being its time to target over NetMax's, or nothing when NetMax did not
// reach it.
func speedups(rs []*engine.Result, target float64, note func(algo string, x float64) string) []string {
	var netmaxT float64
	for _, r := range rs {
		if r.Algo == "NetMax" {
			netmaxT = r.TimeToLoss(target)
		}
	}
	if netmaxT <= 0 {
		return nil
	}
	var out []string
	for _, r := range rs {
		if t := r.TimeToLoss(target); r.Algo != "NetMax" && t > 0 {
			out = append(out, note(r.Algo, t/netmaxT))
		}
	}
	return out
}
