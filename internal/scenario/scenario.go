// Package scenario makes training scenarios data instead of code.
//
// Historically every evaluation scenario in this repository — a paper
// figure, a churn sweep, a compression matrix, a cross-region WAN run — was
// hand-assembled from flag soup and per-example main functions. A scenario
// manifest is a single JSON document that fully describes a run: the
// runtime (discrete-event engine or live process group), the algorithm and
// its options, the topology and network dynamics, worker count, data
// partitioning, compute heterogeneity, failure schedule, wire codec, seeds,
// host parallelism and output selections.
//
// The lifecycle is
//
//	m, err := scenario.Load("scenarios/churn-crash-rejoin.json") // parse + validate
//	rep, err := scenario.Run(m, scenario.RunOptions{OutDir: "runs"})
//
// Load rejects unknown fields (a typoed knob must fail loudly, not silently
// run the default) and Validate performs cross-field checks (a crash must
// precede its rejoin, segment weights must cover every worker, ...).
// Resolved returns the manifest with every default made explicit; Run
// writes that resolved manifest next to the run's results, so any number in
// any table is reproducible from one file. A manifest that injects no
// failures and no codec builds a configuration bitwise-identical to the
// equivalent hand-assembled one — the determinism gate in
// determinism_test.go enforces it.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"netmax/internal/baselines"
	"netmax/internal/codec"
	"netmax/internal/core"
	"netmax/internal/data"
	"netmax/internal/nn"
	"netmax/internal/policy"
	"netmax/internal/simnet"
)

// Manifest is the declarative description of one training run.
//
// Zero values mean "use the documented default"; Resolved returns a copy
// with every default made explicit. Engine-runtime manifests may set
// Topology, Network, Compute and Output; live-runtime manifests set Live
// instead. Partition, Codec, Failures, NetMax and Quick serve both
// runtimes, less the few knobs a live group cannot honour.
type Manifest struct {
	// Name identifies the scenario; it becomes the output directory name,
	// so it must be non-empty and contain no path separators.
	Name string `json:"name"`
	// Description is free-form documentation shown by `netmax-scenario list`.
	Description string `json:"description,omitempty"`
	// Runtime selects the execution substrate: "engine" (default) for the
	// deterministic discrete-event simulation, "live" for the concurrent
	// goroutine process group.
	Runtime string `json:"runtime,omitempty"`
	// Algorithm names the training approach. Engine runtime accepts
	// netmax (default), adpsgd, adpsgd-monitor, saps, hop, allreduce,
	// dpsgd, prague, ps-sync, ps-async. Live runtime runs
	// NetMax (or uniform AD-PSGD-style selection via
	// netmax.uniform_policy).
	Algorithm string `json:"algorithm,omitempty"`
	// HopStaleness is Hop's staleness bound (algorithm "hop" only;
	// 0 selects baselines.DefaultHopStaleness, 4).
	HopStaleness int `json:"hop_staleness,omitempty"`
	// Model is an nn model-zoo name: MobileNet, ResNet18 (default),
	// ResNet50, VGG19, GoogLeNet.
	Model string `json:"model,omitempty"`
	// Dataset is a synthetic dataset name: MNIST, CIFAR10 (default),
	// CIFAR100, TinyImageNet, ImageNet.
	Dataset string `json:"dataset,omitempty"`
	// Workers is the node count (default 8 for engine, 4 for live).
	Workers int `json:"workers,omitempty"`
	// Seed drives model init, random churn, and the data (DataSeed) and
	// network dynamics whose own seed is left unset (default 1).
	Seed int64 `json:"seed,omitempty"`
	// DataSeed drives dataset generation and the partition; nil uses Seed.
	DataSeed *int64 `json:"data_seed,omitempty"`

	// Epochs bounds an engine run in passes over the union of shards
	// (default 8). Engine-only; live runs bound by iterations/duration.
	Epochs int `json:"epochs,omitempty"`
	// Batch is the per-segment batch size (default 16).
	Batch int `json:"batch,omitempty"`
	// LR is the SGD learning rate (default 0.1).
	LR float64 `json:"lr,omitempty"`
	// LRDecayEpoch divides the learning rate by 10 after that epoch
	// completes; 0 (default) disables decay. Engine-only.
	LRDecayEpoch int `json:"lr_decay_epoch,omitempty"`
	// Overlap enables Algorithm 2's compute/communication overlap
	// (default true). Engine-only.
	Overlap *bool `json:"overlap,omitempty"`
	// Parallelism bounds how many gradients a synchronous round of
	// allreduce, ps-sync or dpsgd computes concurrently: 0 (default) as
	// many as the process's host budget allows, 1 serial. Results are
	// bitwise identical at any setting.
	// Values above 1 are rejected for every other algorithm, which steps
	// one worker at a time. Engine-only.
	Parallelism int `json:"parallelism,omitempty"`

	Topology  *TopologySpec  `json:"topology,omitempty"`
	Network   *NetworkSpec   `json:"network,omitempty"`
	Partition *PartitionSpec `json:"partition,omitempty"`
	Compute   *ComputeSpec   `json:"compute,omitempty"`
	Codec     *CodecSpec     `json:"codec,omitempty"`
	Failures  *FailureSpec   `json:"failures,omitempty"`
	// NetMax tunes the NetMax monitor/policy loop (algorithms "netmax" and
	// "adpsgd-monitor" only) on both runtimes; unset fields take
	// core.Options.Resolved's defaults. netmax.ts_secs is engine-only: a
	// live monitor's wall-clock period is live.ts_millis.
	NetMax *core.Options `json:"netmax,omitempty"`
	Live   *LiveSpec     `json:"live,omitempty"`
	Output *OutputSpec   `json:"output,omitempty"`
	Quick  *QuickSpec    `json:"quick,omitempty"`
}

// TopologySpec places workers onto machines. Engine-only.
type TopologySpec struct {
	// Kind: "paper-cluster" (default; the paper's Section V-A placement),
	// "single-machine", "ring", or "cross-region" (implied by — and only
	// valid with — the cross-region network).
	Kind string `json:"kind"`
}

// NetworkSpec selects the link-rate model and its dynamics. Engine-only.
type NetworkSpec struct {
	// Kind: "heterogeneous" (default; cluster rates plus the moving 2-100x
	// slow link), "homogeneous" (10 Gbps virtual switch), "static"
	// (cluster rates, no dynamics), "shuffled" (a random third of links
	// congested, re-drawn every period), or "cross-region" (the Appendix G
	// six-region WAN).
	Kind string `json:"kind"`
	// Seed drives the dynamic schedules; nil uses the manifest seed.
	Seed *int64 `json:"seed,omitempty"`
	// PeriodSecs is the slow-link relocation (or shuffle) period for the
	// dynamic kinds; 0 selects the experiments default (6 virtual
	// seconds, the paper's 300s over the 50x time scale). The schedule
	// covers DefaultHorizon virtual seconds.
	PeriodSecs float64 `json:"period_secs,omitempty"`
}

// PartitionSpec assigns data shards to workers.
type PartitionSpec struct {
	// Kind: "uniform" (default), "segments" (the Section V-F non-uniform
	// scheme; batch scales with segment count), or "label-skew" (each
	// worker loses whole classes).
	Kind string `json:"kind"`
	// Segments lists each worker's relative data weight (kind "segments").
	Segments []int `json:"segments,omitempty"`
	// LostLabels lists, per worker, the class labels it never sees
	// (kind "label-skew").
	LostLabels [][]int `json:"lost_labels,omitempty"`
	// Preset expands to a paper table: "paper-8"/"paper-16" (Section V-F
	// segment layouts), "table-4" (the 8-worker MNIST skew), "table-7"
	// (the 6-region skew). Resolved replaces the preset with the concrete
	// Segments/LostLabels.
	Preset string `json:"preset,omitempty"`
}

// ComputeSpec describes compute heterogeneity as a multiplier on one
// worker's gradient-computation time. Engine-only.
type ComputeSpec struct {
	// Kind: "straggler" (worker Worker computes Factor times slower).
	Kind   string  `json:"kind"`
	Worker int     `json:"worker,omitempty"`
	Factor float64 `json:"factor,omitempty"`
}

// CodecSpec selects the wire compression codec for model pulls.
type CodecSpec struct {
	// Name: "raw" or "float32".
	Name string `json:"name"`
}

// FailureSpec is the declarative form of simnet.FailureSchedule, in virtual
// seconds on the engine and wall-clock seconds since the start on live,
// which takes crash and leave events only.
type FailureSpec struct {
	// DetectSecs is the simulated pull deadline charged for a pull at an
	// unresponsive peer; 0 selects simnet.DefaultDetectSecs. Engine-only.
	DetectSecs float64 `json:"detect_secs,omitempty"`
	// Events lists the scheduled failures.
	Events []FailureEvent `json:"events,omitempty"`
	// RandomChurn adds a deterministic random crash schedule on top of
	// Events. Engine-only.
	RandomChurn *RandomChurnSpec `json:"random_churn,omitempty"`
}

// FailureEvent is one scheduled churn event.
type FailureEvent struct {
	// Kind: "crash" (Worker, At, Rejoin), "hang" (Worker, At, Until),
	// "leave" (Worker, At), or "blackout" (A, B, At, Until).
	Kind   string  `json:"kind"`
	Worker int     `json:"worker,omitempty"`
	A      int     `json:"a,omitempty"`
	B      int     `json:"b,omitempty"`
	At     float64 `json:"at"`
	Until  float64 `json:"until,omitempty"`
	Rejoin float64 `json:"rejoin,omitempty"`
}

// RandomChurnSpec parameterizes simnet.NewRandomChurn; the manifest seed
// drives the schedule.
type RandomChurnSpec struct {
	// HorizonSecs is the virtual-time window the churn covers.
	HorizonSecs float64 `json:"horizon_secs"`
	// CrashesPerWorker is the expected crash count per worker.
	CrashesPerWorker float64 `json:"crashes_per_worker"`
	// MeanDownSecs is the mean downtime per crash.
	MeanDownSecs float64 `json:"mean_down_secs"`
}

// LiveSpec configures what only the live (goroutine / TCP) runtime has;
// its monitor and churn are in the netmax block and FailureSpec. Every model pull
// and monitor exchange has the deadline DefaultPullTimeout.
type LiveSpec struct {
	// Transport: "local" (default) or "tcp". Both open the same
	// loopback-TCP hub, transport.NewLocalHub; they differ only in that
	// "tcp" admits no Latency block.
	Transport string `json:"transport,omitempty"`
	// TsMillis is the monitor's wall-clock policy period (default 500).
	TsMillis int `json:"ts_millis,omitempty"`
	// DurationSecs bounds the run in wall-clock seconds; 0 relies on
	// Iterations.
	DurationSecs float64 `json:"duration_secs,omitempty"`
	// Iterations bounds per-worker iterations; 0 relies on DurationSecs.
	Iterations int `json:"iterations,omitempty"`
	// Latency injects artificial pull latency; only "local" admits it.
	Latency *LatencySpec `json:"latency,omitempty"`
}

// LatencySpec emulates a two-tier network on the local transport: the
// first Colocated workers share fast links; every other pair is slow.
type LatencySpec struct {
	// Colocated is how many leading workers count as co-located.
	Colocated int `json:"colocated"`
	// IntraMillis is the latency between co-located workers (and between
	// non-co-located ones — the "same side" rule), InterMillis across.
	IntraMillis float64 `json:"intra_millis"`
	InterMillis float64 `json:"inter_millis"`
}

// OutputSpec selects what a run writes next to its resolved manifest.
// Engine-only.
type OutputSpec struct {
	// Curves also writes the loss curve as CSV.
	Curves bool `json:"curves,omitempty"`
}

// QuickSpec lists overrides applied when a run is invoked with -quick:
// fields left zero keep the manifest's full-scale values. Epochs shrinks
// an engine run; Iterations replaces a live run's bound.
type QuickSpec struct {
	Workers    int `json:"workers,omitempty"`
	Epochs     int `json:"epochs,omitempty"`
	Iterations int `json:"iterations,omitempty"`
}

// Default values made explicit by Resolved.
const (
	DefaultRuntime     = "engine"
	DefaultAlgorithm   = "netmax"
	DefaultModel       = "ResNet18"
	DefaultDataset     = "CIFAR10"
	DefaultWorkers     = 8
	DefaultLiveWorkers = 4
	DefaultSeed        = 1
	DefaultEpochs      = 8
	DefaultBatch       = 16
	DefaultLR          = 0.1
	// DefaultSlowPeriod is the slow-link relocation period: the paper's
	// simnet.SlowLinkPeriod over simnet.TimeScale.
	DefaultSlowPeriod = simnet.SlowLinkPeriod / simnet.TimeScale
	// DefaultHorizon is the virtual-time span every dynamic network
	// schedule covers; effectively unbounded.
	DefaultHorizon  = 1e7
	DefaultLiveTsMs = 500
	// DefaultPullTimeout bounds every live model pull and monitor exchange.
	DefaultPullTimeout = 2 * time.Second
)

// maxEpochs caps epochs and quick.epochs, so a manifest that validates
// also finishes. The largest value in use is 40, in full-scale
// experiments such as fig8.
const maxEpochs = 1000

// Caps on live.iterations and quick.iterations, live.duration_secs and
// random_churn.crashes_per_worker, so that a run that validates also ends.
// crashes_per_worker alone sets a schedule's size: about workers ×
// crashes_per_worker events, whatever the horizon, each scanned by every
// churn query. The largest values in use are 3,000 iterations (perfbench's
// live-float32), 1 s and 2 crashes per worker.
//
// live.ts_millis and netmax.stale_periods are capped so that a live run's
// retry cooldown, ts × (stale_periods + 1), fits a time.Duration: an hour
// times 1,001 is about 3.6e15 ns, against a limit of 9.2e18. The largest
// values in use are 500 ms (the default) and 3 periods (the default).
const (
	maxLiveIterations   = 100_000
	maxLiveSecs         = 600
	maxCrashesPerWorker = 100
	maxLiveTsMillis     = 3_600_000
	maxStalePeriods     = 1_000
)

// Parse decodes a manifest from JSON, rejecting unknown fields, and
// validates it.
func Parse(raw []byte) (*Manifest, error) {
	m, err := decodeStrict[Manifest](raw, "manifest")
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeStrict decodes one JSON object, what ("manifest" or "suite"),
// rejecting unknown fields and trailing data: garbage after the object is
// as much a mistake as an unknown field. Validation is the caller's job.
func decodeStrict[T any](raw []byte, what string) (*T, error) {
	op := "scenario: parse"
	if what != "manifest" {
		op += " " + what
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var v T
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("%s: %w", op, err)
	}
	// dec.More is not enough: it is false on a stray '}' or ']'.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%s: trailing data after %s object", op, what)
	}
	return &v, nil
}

// Load reads, parses and validates a manifest file.
func Load(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	m, err := Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return m, nil
}

// clone deep-copies a manifest through JSON (the schema is pure data).
func (m *Manifest) clone() *Manifest {
	raw, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("scenario: clone marshal: %v", err))
	}
	var out Manifest
	if err := json.Unmarshal(raw, &out); err != nil {
		panic(fmt.Sprintf("scenario: clone unmarshal: %v", err))
	}
	return &out
}

func boolPtr(b bool) *bool  { return &b }
func i64Ptr(v int64) *int64 { return &v }
func orStr(v, d string) string {
	if v == "" {
		return d
	}
	return v
}

// Resolved returns a copy of the manifest with every default made explicit.
// Running the resolved manifest builds a configuration identical to running
// the original, and resolving is idempotent: Resolved(Resolved(m)) equals
// Resolved(m), and a resolved manifest survives a marshal/parse round trip
// unchanged (the fixed point the round-trip test enforces).
func (m *Manifest) Resolved() *Manifest {
	r := m.clone()
	r.Runtime = orStr(r.Runtime, DefaultRuntime)
	r.Algorithm = orStr(r.Algorithm, DefaultAlgorithm)
	r.Model = orStr(r.Model, DefaultModel)
	r.Dataset = orStr(r.Dataset, DefaultDataset)
	if r.Seed == 0 {
		r.Seed = DefaultSeed
	}
	if r.DataSeed == nil {
		r.DataSeed = i64Ptr(r.Seed)
	}
	if r.Workers == 0 {
		if r.Runtime == "live" {
			r.Workers = DefaultLiveWorkers
		} else {
			r.Workers = DefaultWorkers
		}
	}
	if r.Batch == 0 {
		r.Batch = DefaultBatch
	}
	if r.LR == 0 {
		r.LR = DefaultLR
	}
	if r.Partition == nil {
		r.Partition = &PartitionSpec{}
	}
	r.Partition.Kind = orStr(r.Partition.Kind, "uniform")
	expandPreset(r.Partition)

	switch r.Runtime {
	case "live":
		if r.Live == nil {
			r.Live = &LiveSpec{}
		}
		l := r.Live
		l.Transport = orStr(l.Transport, "local")
		if l.TsMillis == 0 {
			l.TsMillis = DefaultLiveTsMs
		}
	default: // engine
		if r.Epochs == 0 {
			r.Epochs = DefaultEpochs
		}
		if r.Overlap == nil {
			r.Overlap = boolPtr(true)
		}
		if r.Network == nil {
			r.Network = &NetworkSpec{}
		}
		r.Network.Kind = orStr(r.Network.Kind, "heterogeneous")
		switch r.Network.Kind {
		case "heterogeneous", "shuffled":
			if r.Network.Seed == nil {
				r.Network.Seed = i64Ptr(r.Seed)
			}
			if r.Network.PeriodSecs == 0 {
				r.Network.PeriodSecs = DefaultSlowPeriod
			}
		}
		if r.Topology == nil {
			r.Topology = &TopologySpec{}
		}
		if r.Topology.Kind == "" {
			if r.Network.Kind == "cross-region" {
				r.Topology.Kind = "cross-region"
			} else {
				r.Topology.Kind = "paper-cluster"
			}
		}
		if r.Failures != nil && r.Failures.DetectSecs == 0 {
			r.Failures.DetectSecs = simnet.DefaultDetectSecs
		}
	}
	a, _ := lookupAlgorithm(r.Algorithm)
	if a.hopStaleness && r.HopStaleness == 0 {
		r.HopStaleness = baselines.DefaultHopStaleness
	}
	if a.netmax {
		if r.NetMax == nil {
			r.NetMax = &core.Options{}
		}
		*r.NetMax = r.NetMax.Resolved()
		// Live takes its period from live.ts_millis.
		if r.Runtime == "live" {
			r.NetMax.TsSecs = 0
		}
	}
	return r
}

// applyQuick returns a copy with the manifest's quick overrides applied and
// the Quick block cleared, so the resolved form of a quick run stands alone
// as a reproducible description of what actually ran. Manifests without a
// Quick block are returned unchanged (already their own quick form).
func (m *Manifest) applyQuick() *Manifest {
	if m.Quick == nil {
		return m
	}
	r := m.clone()
	q := r.Quick
	r.Quick = nil
	if q.Workers > 0 {
		r.Workers = q.Workers
	}
	if q.Epochs > 0 {
		r.Epochs = q.Epochs
	}
	if q.Iterations > 0 && r.Runtime == "live" {
		if r.Live == nil {
			r.Live = &LiveSpec{}
		}
		r.Live.Iterations = q.Iterations
		r.Live.DurationSecs = 0
	}
	return r
}

// expandPreset replaces a partition preset with its concrete table.
func expandPreset(p *PartitionSpec) {
	switch p.Preset {
	case "paper-8":
		p.Kind, p.Segments = "segments", data.PaperSegments8()
	case "paper-16":
		p.Kind, p.Segments = "segments", data.PaperSegments16()
	case "table-4":
		p.Kind, p.LostLabels = "label-skew", data.TableIVSkew()
	case "table-7":
		p.Kind, p.LostLabels = "label-skew", data.TableVIISkew()
	default:
		return
	}
	p.Preset = ""
}

// errorList collects validation problems so a malformed manifest reports
// everything wrong with it at once.
type errorList struct {
	name  string
	probs []string
}

func (e *errorList) addf(format string, args ...interface{}) {
	e.probs = append(e.probs, fmt.Sprintf(format, args...))
}

func (e *errorList) err() error {
	if len(e.probs) == 0 {
		return nil
	}
	return fmt.Errorf("scenario %q: %s", e.name, strings.Join(e.probs, "; "))
}

// Validate checks the manifest for structural and cross-field consistency.
// Validation operates on the resolved view, so a manifest is valid exactly
// when its resolved form is runnable; the quick overrides are checked too.
func (m *Manifest) Validate() error {
	_, _, err := m.resolveForms()
	return err
}

// resolveForms validates the manifest as Validate does and returns its
// resolved form and the resolved form of applyQuick (r itself when there
// is no quick block).
func (m *Manifest) resolveForms() (r, quick *Manifest, err error) {
	if r, err = m.validateOne(); err != nil {
		return nil, nil, err
	}
	if m.Quick == nil {
		return r, r, nil
	}
	if quick, err = m.applyQuick().validateOne(); err != nil {
		return nil, nil, fmt.Errorf("%w (with quick overrides applied)", err)
	}
	return r, quick, nil
}

// validateOne validates the manifest alone, without its quick form, and
// returns its resolved form.
func (m *Manifest) validateOne() (*Manifest, error) {
	e := &errorList{name: m.Name}
	if m.Name == "" {
		e.addf("name must be non-empty")
	}
	if strings.ContainsAny(m.Name, "/\\") {
		e.addf("name must not contain path separators")
	}
	switch m.Runtime {
	case "", "engine", "live":
	default:
		e.addf("unknown runtime %q (want engine or live)", m.Runtime)
		return nil, e.err()
	}
	r := m.Resolved()
	a, _ := lookupAlgorithm(r.Algorithm)
	if _, err := nn.SpecByName(r.Model); err != nil {
		e.addf("unknown model %q", r.Model)
	}
	if _, err := data.SpecByName(r.Dataset); err != nil {
		e.addf("unknown dataset %q", r.Dataset)
	}
	if r.Workers < 2 {
		e.addf("workers must be >= 2, got %d", r.Workers)
	}
	if r.Workers > policy.MaxWorkers {
		e.addf("workers must be <= %d, got %d", policy.MaxWorkers, r.Workers)
	}
	if r.Batch < 1 {
		e.addf("batch must be >= 1, got %d", r.Batch)
	}
	if r.LR <= 0 {
		e.addf("lr must be positive, got %g", r.LR)
	}
	if r.Parallelism < 0 {
		e.addf("parallelism must be >= 0, got %d", r.Parallelism)
	}
	if r.HopStaleness < 0 {
		e.addf("hop_staleness must be >= 0, got %d", r.HopStaleness)
	}
	if r.HopStaleness > 0 && !a.hopStaleness {
		e.addf("hop_staleness is only valid with algorithm %s (got %q)",
			algorithmsWhere(func(a algorithm) bool { return a.hopStaleness }), r.Algorithm)
	}
	if q := m.Quick; q != nil {
		if q.Workers < 0 {
			e.addf("quick.workers must be >= 0, got %d", q.Workers)
		}
		if q.Workers > policy.MaxWorkers {
			e.addf("quick.workers must be <= %d, got %d", policy.MaxWorkers, q.Workers)
		}
		if q.Epochs < 0 {
			e.addf("quick.epochs must be >= 0, got %d", q.Epochs)
		}
		if q.Epochs > maxEpochs {
			e.addf("quick.epochs must be <= %d, got %d", maxEpochs, q.Epochs)
		}
		if q.Iterations < 0 {
			e.addf("quick.iterations must be >= 0, got %d", q.Iterations)
		}
		if q.Iterations > maxLiveIterations {
			e.addf("quick.iterations must be <= %d, got %d", maxLiveIterations, q.Iterations)
		}
		if q.Iterations != 0 && r.Runtime != "live" {
			e.addf("quick.iterations is live-only (an engine run shrinks through quick.epochs)")
		}
	}
	validatePartition(e, r)
	validateCodec(e, r)
	if r.Runtime == "live" {
		validateLive(e, m, r, a)
	} else {
		validateEngine(e, m, r, a)
	}
	if err := e.err(); err != nil {
		return nil, err
	}
	return r, nil
}

func validatePartition(e *errorList, r *Manifest) {
	p := r.Partition
	if p.Preset != "" {
		e.addf("unknown partition preset %q (want paper-8, paper-16, table-4 or table-7)", p.Preset)
		return
	}
	ds, err := data.SpecByName(r.Dataset)
	known := err == nil
	switch p.Kind {
	case "uniform":
		if len(p.Segments) > 0 || len(p.LostLabels) > 0 {
			e.addf("uniform partition takes no segments or lost_labels")
		}
	case "segments":
		if len(p.Segments) != r.Workers {
			e.addf("partition segments has %d entries, want one per worker (%d)", len(p.Segments), r.Workers)
		}
		// data.Segments gives each unit train.Len()/sum rows, so a sum
		// above the training set leaves every worker no examples. Capping
		// each term keeps the sum from overflowing.
		sum := 0
		for i, s := range p.Segments {
			if s <= 0 {
				e.addf("partition segment %d must be positive, got %d", i, s)
			} else {
				sum += min(s, ds.TrainSize+1)
			}
		}
		if known && sum > ds.TrainSize {
			e.addf("partition segments sum to more than %s's %d training rows, leaving every worker no examples", r.Dataset, ds.TrainSize)
		}
	case "label-skew":
		if len(p.LostLabels) != r.Workers {
			e.addf("partition lost_labels has %d entries, want one per worker (%d)", len(p.LostLabels), r.Workers)
		}
		if !known {
			break
		}
		for w, lost := range p.LostLabels {
			seen := make([]bool, ds.Classes)
			left := ds.Classes
			for _, l := range lost {
				if l < 0 || l >= ds.Classes {
					e.addf("partition lost_labels[%d] names class %d outside %s's %d classes", w, l, r.Dataset, ds.Classes)
				} else if !seen[l] {
					seen[l] = true
					left--
				}
			}
			if left == 0 {
				e.addf("partition lost_labels[%d] covers all of %s's %d classes, leaving worker %d no examples", w, r.Dataset, ds.Classes, w)
			}
		}
	default:
		e.addf("unknown partition kind %q (want uniform, segments or label-skew)", p.Kind)
	}
}

func validateCodec(e *errorList, r *Manifest) {
	c := r.Codec
	if c == nil {
		return
	}
	if !slices.Contains(codec.Names(), c.Name) {
		e.addf("unknown codec %q (want %s)", c.Name, strings.Join(codec.Names(), ", "))
	}
}

func validateEngine(e *errorList, m, r *Manifest, a algorithm) {
	if m.Live != nil {
		e.addf("live block is only valid with runtime \"live\"")
	}
	if _, ok := lookupAlgorithm(r.Algorithm); !ok {
		e.addf("unknown algorithm %q (want one of %s)", r.Algorithm, algorithmsWhere(anyAlgorithm))
	}
	if r.NetMax != nil && !a.netmax {
		e.addf("netmax block is only valid with algorithms %s (got %q)",
			algorithmsWhere(func(a algorithm) bool { return a.netmax }), r.Algorithm)
	}
	if !a.codecFailures {
		async := algorithmsWhere(func(a algorithm) bool { return a.codecFailures })
		if r.Codec != nil {
			e.addf("codec block is only valid with the asynchronous algorithms (%s); %q ignores it", async, r.Algorithm)
		}
		if r.Failures != nil {
			e.addf("failures block is only valid with the asynchronous algorithms (%s); %q ignores it", async, r.Algorithm)
		}
	}
	if r.Parallelism > 1 && !a.parallelism {
		e.addf("parallelism > 1 is only valid with the synchronous-round algorithms (%s); %q steps one worker at a time and ignores it",
			algorithmsWhere(func(a algorithm) bool { return a.parallelism }), r.Algorithm)
	}
	if r.Epochs < 1 {
		e.addf("epochs must be >= 1, got %d", r.Epochs)
	}
	if r.Epochs > maxEpochs {
		e.addf("epochs must be <= %d, got %d", maxEpochs, r.Epochs)
	}
	if r.LRDecayEpoch < 0 {
		e.addf("lr_decay_epoch must be >= 0, got %d", r.LRDecayEpoch)
	}
	validateTopologyNetwork(e, r)
	validateCompute(e, r)
	validateFailures(e, r)
	validateNetMax(e, m)
}

// validateNetMax checks the netmax block of either runtime as written: a
// zero field is unset, and resolution gives it its default, but would also
// silently replace an out-of-range one. Only the engine reads ts_secs.
func validateNetMax(e *errorList, m *Manifest) {
	nm := m.NetMax
	if nm == nil {
		return
	}
	switch {
	case m.Runtime == "live" && nm.TsSecs != 0:
		e.addf("netmax.ts_secs is engine-only (a live monitor's period is live.ts_millis)")
	case nm.TsSecs < 0:
		e.addf("netmax.ts_secs must be positive, got %g", nm.TsSecs)
	}
	if nm.Beta < 0 || nm.Beta >= 1 {
		e.addf("netmax.beta must be in (0, 1), got %g", nm.Beta)
	}
	if nm.PolicyRounds != 0 && nm.PolicyRounds < 2 {
		e.addf("netmax.policy_rounds must be >= 2 (one round searches a one-point grid), got %d", nm.PolicyRounds)
	}
	if nm.PolicyRounds > policy.MaxRounds {
		e.addf("netmax.policy_rounds must be <= %d (a regeneration scores rounds² candidates), got %d", policy.MaxRounds, nm.PolicyRounds)
	}
	if nm.StalePeriods < 0 {
		e.addf("netmax.stale_periods must be >= 1, got %d", nm.StalePeriods)
	}
	if nm.StalePeriods > maxStalePeriods {
		e.addf("netmax.stale_periods must be <= %d, got %d", maxStalePeriods, nm.StalePeriods)
	}
}

func validateTopologyNetwork(e *errorList, r *Manifest) {
	t, n := r.Topology, r.Network
	switch n.Kind {
	case "heterogeneous", "shuffled":
		if n.PeriodSecs <= 0 {
			e.addf("network.period_secs must be positive, got %g", n.PeriodSecs)
		}
	case "homogeneous", "static":
		if n.PeriodSecs != 0 || n.Seed != nil {
			e.addf("network kind %q has no dynamics: drop period_secs/seed", n.Kind)
		}
	case "cross-region":
		if r.Workers != len(simnet.Regions) {
			e.addf("cross-region network fixes workers to %d regions, got %d", len(simnet.Regions), r.Workers)
		}
		if t.Kind != "cross-region" {
			e.addf("cross-region network implies cross-region topology, got %q", t.Kind)
		}
	default:
		e.addf("unknown network kind %q (want heterogeneous, homogeneous, static, shuffled or cross-region)", n.Kind)
	}
	switch t.Kind {
	case "paper-cluster", "single-machine", "ring":
	case "cross-region":
		if n.Kind != "cross-region" {
			e.addf("cross-region topology requires the cross-region network, got %q", n.Kind)
		}
	default:
		e.addf("unknown topology kind %q (want paper-cluster, single-machine, ring or cross-region)", t.Kind)
	}
}

func validateCompute(e *errorList, r *Manifest) {
	c := r.Compute
	if c == nil {
		return
	}
	if c.Kind != "straggler" {
		e.addf("unknown compute kind %q (want straggler)", c.Kind)
		return
	}
	if c.Worker < 0 || c.Worker >= r.Workers {
		e.addf("compute.worker %d outside [0, %d)", c.Worker, r.Workers)
	}
	if c.Factor <= 0 {
		e.addf("compute.factor must be positive, got %g", c.Factor)
	}
}

func validateFailures(e *errorList, r *Manifest) {
	f := r.Failures
	if f == nil {
		return
	}
	if f.DetectSecs < 0 {
		e.addf("failures.detect_secs must be >= 0, got %g", f.DetectSecs)
	}
	for i, ev := range f.Events {
		switch ev.Kind {
		case "crash":
			if ev.Rejoin <= ev.At {
				e.addf("failure event %d: crash rejoin (%g) must come after the crash (%g); use kind \"leave\" for a permanent crash", i, ev.Rejoin, ev.At)
			}
			checkEventWorker(e, r, i, ev.Worker)
		case "hang":
			if ev.Until <= ev.At {
				e.addf("failure event %d: hang until (%g) must come after at (%g)", i, ev.Until, ev.At)
			}
			checkEventWorker(e, r, i, ev.Worker)
		case "leave":
			checkEventWorker(e, r, i, ev.Worker)
		case "blackout":
			if ev.Until <= ev.At {
				e.addf("failure event %d: blackout until (%g) must come after at (%g)", i, ev.Until, ev.At)
			}
			if ev.A == ev.B {
				e.addf("failure event %d: blackout endpoints must differ", i)
			}
			if ev.A < 0 || ev.A >= r.Workers || ev.B < 0 || ev.B >= r.Workers {
				e.addf("failure event %d: blackout endpoints (%d, %d) outside [0, %d)", i, ev.A, ev.B, r.Workers)
			}
		default:
			e.addf("failure event %d: unknown kind %q (want crash, hang, leave or blackout)", i, ev.Kind)
		}
		if ev.At < 0 {
			e.addf("failure event %d: at must be >= 0, got %g", i, ev.At)
		}
	}
	if rc := f.RandomChurn; rc != nil {
		if rc.HorizonSecs <= 0 {
			e.addf("random_churn.horizon_secs must be positive, got %g", rc.HorizonSecs)
		}
		if rc.CrashesPerWorker <= 0 {
			e.addf("random_churn.crashes_per_worker must be positive, got %g", rc.CrashesPerWorker)
		}
		if rc.CrashesPerWorker > maxCrashesPerWorker {
			e.addf("random_churn.crashes_per_worker must be <= %d, got %g", maxCrashesPerWorker, rc.CrashesPerWorker)
		}
		if rc.MeanDownSecs <= 0 {
			e.addf("random_churn.mean_down_secs must be positive, got %g", rc.MeanDownSecs)
		}
	}
}

func checkEventWorker(e *errorList, r *Manifest, i, w int) {
	if w < 0 || w >= r.Workers {
		e.addf("failure event %d: worker %d outside [0, %d)", i, w, r.Workers)
	}
}

func validateLive(e *errorList, m, r *Manifest, a algorithm) {
	engineOnly := []struct {
		field string
		set   bool
	}{
		{"topology", m.Topology != nil},
		{"network", m.Network != nil},
		{"compute", m.Compute != nil},
		{"epochs", m.Epochs != 0},
		{"lr_decay_epoch", m.LRDecayEpoch != 0},
		{"overlap", m.Overlap != nil},
		{"parallelism", m.Parallelism != 0},
		{"output", m.Output != nil},
	}
	for _, f := range engineOnly {
		if f.set {
			e.addf("%s is engine-only (runtime is live; use the live block)", f.field)
		}
	}
	if !a.live {
		e.addf("live runtime runs only %s (algorithm %q unsupported; use netmax.uniform_policy for AD-PSGD-style selection)",
			algorithmsWhere(func(a algorithm) bool { return a.live }), r.Algorithm)
	}
	if r.Partition.Kind == "segments" {
		e.addf("segments partition is engine-only (live workers share one batch size)")
	}
	l := r.Live
	if l.Transport != "local" && l.Transport != "tcp" {
		e.addf("unknown live transport %q (want local or tcp)", l.Transport)
	}
	if l.TsMillis <= 0 {
		e.addf("live.ts_millis must be positive, got %d", l.TsMillis)
	}
	if l.TsMillis > maxLiveTsMillis {
		e.addf("live.ts_millis must be <= %d, got %d", maxLiveTsMillis, l.TsMillis)
	}
	if l.DurationSecs < 0 {
		e.addf("live.duration_secs must be >= 0, got %g", l.DurationSecs)
	}
	if l.DurationSecs > maxLiveSecs {
		e.addf("live.duration_secs must be <= %d, got %g", maxLiveSecs, l.DurationSecs)
	}
	if l.Iterations < 0 {
		e.addf("live.iterations must be >= 0, got %d", l.Iterations)
	}
	if l.Iterations > maxLiveIterations {
		e.addf("live.iterations must be <= %d, got %d", maxLiveIterations, l.Iterations)
	}
	if l.DurationSecs == 0 && l.Iterations == 0 {
		e.addf("live runs need a bound: set duration_secs or iterations")
	}
	if l.Latency != nil {
		if l.Transport != "local" {
			e.addf("live.latency injection requires the local transport")
		}
		if l.Latency.Colocated < 0 || l.Latency.Colocated > r.Workers {
			e.addf("live.latency.colocated %d outside [0, %d]", l.Latency.Colocated, r.Workers)
		}
		if l.Latency.IntraMillis < 0 || l.Latency.InterMillis < 0 {
			e.addf("live.latency millis must be >= 0")
		}
	}
	if f := r.Failures; f != nil {
		if f.DetectSecs != 0 {
			e.addf("failures.detect_secs is engine-only (a live pull's deadline is a fixed %v)", DefaultPullTimeout)
		}
		if f.RandomChurn != nil {
			e.addf("failures.random_churn is engine-only (live runs list their events)")
		}
		for i, ev := range f.Events {
			if ev.Kind == "hang" || ev.Kind == "blackout" {
				e.addf("failure event %d: kind %q is engine-only (the live runtime injects crash and leave)", i, ev.Kind)
			}
		}
	}
	validateFailures(e, r)
	validateNetMax(e, m)
}
