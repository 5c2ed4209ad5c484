package scenario

import (
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"netmax/internal/core"
	"netmax/internal/live"
	"netmax/internal/simnet"
)

// minimal returns the smallest interesting engine manifest: quick to run,
// exercising the default path.
func minimal() *Manifest {
	return &Manifest{
		Name:    "t-minimal",
		Model:   "MobileNet",
		Dataset: "MNIST",
		Workers: 4,
		Epochs:  2,
		Network: &NetworkSpec{Kind: "static"},
	}
}

// TestResolvedFixedPoint checks that resolving is idempotent and that a
// resolved manifest survives a marshal/parse round trip unchanged:
// Load(Resolved(m)) is a fixed point.
func TestResolvedFixedPoint(t *testing.T) {
	cases := []*Manifest{
		minimal(),
		{Name: "t-defaults"},
		{
			Name: "t-full", Algorithm: "adpsgd-monitor", Model: "VGG19", Dataset: "CIFAR100",
			Workers: 8, Epochs: 3, Batch: 8, LR: 0.05, LRDecayEpoch: 2, Seed: 9,
			Topology: &TopologySpec{Kind: "paper-cluster"},
			Network:  &NetworkSpec{Kind: "shuffled", PeriodSecs: 3},
			Compute:  &ComputeSpec{Kind: "straggler", Worker: 3, Factor: 5},
			Codec:    &CodecSpec{Name: "float32"},
			Failures: &FailureSpec{Events: []FailureEvent{{Kind: "crash", Worker: 1, At: 5, Rejoin: 9}}},
			NetMax:   &core.Options{StalePeriods: 2},
			Output:   &OutputSpec{Curves: true},
		},
		{
			Name: "t-preset", Dataset: "MNIST",
			Partition: &PartitionSpec{Preset: "paper-8"},
		},
		{Name: "t-data-seed", Seed: 4, DataSeed: i64Ptr(12)},
		{
			Name: "t-live", Runtime: "live", Model: "MobileNet", Dataset: "MNIST",
			Live: &LiveSpec{Iterations: 10, Latency: &LatencySpec{Colocated: 2, IntraMillis: 1, InterMillis: 6}},
		},
		{
			Name: "t-live-churn", Runtime: "live", Model: "MobileNet", Dataset: "MNIST",
			Live:     &LiveSpec{DurationSecs: 1},
			NetMax:   &core.Options{UniformPolicy: true},
			Failures: &FailureSpec{Events: []FailureEvent{{Kind: "crash", Worker: 1, At: 0.2, Rejoin: 0.6}}},
		},
		{
			Name: "t-churn", Workers: 4, Network: &NetworkSpec{Kind: "homogeneous"},
			Failures: &FailureSpec{RandomChurn: &RandomChurnSpec{HorizonSecs: 100, CrashesPerWorker: 2, MeanDownSecs: 5}},
		},
	}
	for _, m := range cases {
		t.Run(m.Name, func(t *testing.T) {
			if err := m.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			r := m.Resolved()
			if !reflect.DeepEqual(r, r.Resolved()) {
				t.Fatalf("Resolved not idempotent:\n%+v\nvs\n%+v", r, r.Resolved())
			}
			raw, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			back, err := Parse(raw)
			if err != nil {
				t.Fatalf("Parse(Resolved(m)): %v", err)
			}
			if !reflect.DeepEqual(r, back.Resolved()) {
				t.Fatalf("Load(Resolved(m)) is not a fixed point:\n%s\nresolved to\n%+v\nwant\n%+v", raw, back.Resolved(), r)
			}
			if !reflect.DeepEqual(back, back.Resolved()) {
				t.Fatalf("parsed resolved manifest re-resolves differently")
			}
		})
	}
}

// TestValidateRejectsMalformed is the malformed-manifest table: every entry
// must fail Parse with a message containing the fragment.
func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name     string
		raw      string
		fragment string
	}{
		{"unknown field", `{"name": "x", "wrkers": 4}`, "wrkers"},
		{"trailing data", `{"name": "x"} {"name": "y"}`, "trailing data"},
		{"stray brace", `{"name": "x"}}`, "trailing data"},
		{"stray bracket", `{"name": "x"}]`, "trailing data"},
		{"empty name", `{}`, "name must be non-empty"},
		{"bad runtime", `{"name": "x", "runtime": "simulated"}`, "unknown runtime"},
		{"bad algorithm", `{"name": "x", "algorithm": "sgd"}`, "unknown algorithm"},
		{"gossip algorithm", `{"name": "x", "algorithm": "gossip"}`, `unknown algorithm "gossip"`},
		{"dlion algorithm", `{"name": "x", "algorithm": "dlion"}`, `unknown algorithm "dlion"`},
		{"bad model", `{"name": "x", "model": "ResNet34"}`, "unknown model"},
		{"bad dataset", `{"name": "x", "dataset": "SVHN"}`, "unknown dataset"},
		{"one worker", `{"name": "x", "workers": 1}`, "workers must be >= 2"},
		{"workers above cap", `{"name": "x", "workers": 257}`, "workers must be <= 256"},
		// homogeneous-resnet18-cifar10.json at three million workers.
		{"three million workers", `{"name": "homogeneous-resnet18-cifar10", "model": "ResNet18", "dataset": "CIFAR10", "workers": 3000000, "epochs": 20,
			"topology": {"kind": "single-machine"}, "network": {"kind": "homogeneous"}, "quick": {"workers": 4, "epochs": 3}}`, "workers must be <= 256"},
		{"quick workers above cap", `{"name": "x", "quick": {"workers": 3000000}}`, "quick.workers must be <= 256"},
		{"epochs above cap", `{"name": "x", "epochs": 1001}`, "epochs must be <= 1000"},
		// homogeneous-resnet18-cifar10.json at a billion epochs.
		{"a billion epochs", `{"name": "homogeneous-resnet18-cifar10", "model": "ResNet18", "dataset": "CIFAR10", "workers": 8, "epochs": 1000000000,
			"topology": {"kind": "single-machine"}, "network": {"kind": "homogeneous"}, "quick": {"workers": 4, "epochs": 3}}`, "epochs must be <= 1000"},
		{"quick epochs above cap", `{"name": "x", "quick": {"epochs": 1000000000}}`, "quick.epochs must be <= 1000"},
		{"live iterations above cap", `{"name": "x", "runtime": "live", "live": {"iterations": 100001}}`, "live.iterations must be <= 100000"},
		{"quick iterations above cap", `{"name": "x", "runtime": "live", "live": {"iterations": 5}, "quick": {"iterations": 1000000000}}`, "quick.iterations must be <= 100000"},
		{"live duration above cap", `{"name": "x", "runtime": "live", "live": {"duration_secs": 1e9}}`, "live.duration_secs must be <= 600"},
		{"crashes per worker above cap", `{"name": "x", "failures": {"random_churn": {"horizon_secs": 10, "crashes_per_worker": 1e9, "mean_down_secs": 1}}}`, "random_churn.crashes_per_worker must be <= 100"},
		{"bad topology kind", `{"name": "x", "topology": {"kind": "torus"}}`, "unknown topology kind"},
		{"cluster topology", `{"name": "x", "topology": {"kind": "cluster"}}`, `unknown topology kind "cluster"`},
		{"nodes per machine", `{"name": "x", "topology": {"kind": "paper-cluster", "nodes_per_machine": [4, 4]}}`, `unknown field "nodes_per_machine"`},
		{"network horizon", `{"name": "x", "network": {"kind": "heterogeneous", "horizon_secs": 100}}`, `unknown field "horizon_secs"`},
		{"crash after rejoin", `{"name": "x", "failures": {"events": [{"kind": "crash", "worker": 1, "at": 9, "rejoin": 5}]}}`, "must come after the crash"},
		{"hang without until", `{"name": "x", "failures": {"events": [{"kind": "hang", "worker": 1, "at": 9}]}}`, "must come after at"},
		{"blackout self-loop", `{"name": "x", "failures": {"events": [{"kind": "blackout", "a": 2, "b": 2, "at": 1, "until": 2}]}}`, "endpoints must differ"},
		{"failure worker range", `{"name": "x", "workers": 4, "failures": {"events": [{"kind": "leave", "worker": 7, "at": 1}]}}`, "outside [0, 4)"},
		{"unknown codec", `{"name": "x", "codec": {"name": "zstd"}}`, "unknown codec"},
		{"topk codec", `{"name": "x", "codec": {"name": "topk"}}`, `unknown codec "topk" (want raw, float32)`},
		{"topk frac", `{"name": "x", "codec": {"name": "topk", "topk_frac": 0.1}}`, `unknown field "topk_frac"`},
		{"topk frac range", `{"name": "x", "codec": {"name": "topk", "topk_frac": 1.5}}`, "topk_frac"},
		{"topk frac on raw", `{"name": "x", "codec": {"name": "raw", "topk_frac": 0.5}}`, `unknown field "topk_frac"`},
		{"segments mismatch", `{"name": "x", "workers": 4, "partition": {"kind": "segments", "segments": [1, 2]}}`, "want one per worker"},
		{"bad preset", `{"name": "x", "partition": {"preset": "paper-32"}}`, "unknown partition preset"},
		{"segments beyond the training set", `{"name":"seg","workers":2,"epochs":1,"partition":{"kind":"segments","segments":[1,5000]}}`, "sum to more than CIFAR10's 2000 training rows"},
		{"skew loses every class", `{"name":"skew","workers":2,"epochs":1,"dataset":"MNIST","partition":{"kind":"label-skew","lost_labels":[[0,1,2,3,4,5,6,7,8,9],[]]}}`, "covers all of MNIST's 10 classes"},
		{"skew class range", `{"name": "x", "workers": 2, "dataset": "MNIST", "partition": {"kind": "label-skew", "lost_labels": [[11], []]}}`, "outside MNIST's 10 classes"},
		{"cross-region workers", `{"name": "x", "workers": 8, "network": {"kind": "cross-region"}}`, "fixes workers to 6"},
		{"static with dynamics", `{"name": "x", "network": {"kind": "static", "period_secs": 5}}`, "no dynamics"},
		{"hop staleness misuse", `{"name": "x", "hop_staleness": 4}`, "only valid with algorithm"},
		{"netmax block misuse", `{"name": "x", "algorithm": "adpsgd", "netmax": {"ts_secs": 1}}`, "netmax block is only valid"},
		{"codec on allreduce", `{"name": "x", "algorithm": "allreduce", "codec": {"name": "float32"}}`, `"allreduce" ignores it`},
		{"parallelism on netmax", `{"name": "x", "algorithm": "netmax", "parallelism": 2}`, `"netmax" steps one worker at a time`},
		{"explicit compute", `{"name": "x", "compute": {"kind": "explicit"}}`, `unknown compute kind "explicit" (want straggler)`},
		{"linear compute", `{"name": "x", "compute": {"kind": "linear"}}`, `unknown compute kind "linear" (want straggler)`},
		{"lognormal compute", `{"name": "x", "compute": {"kind": "lognormal"}}`, `unknown compute kind "lognormal" (want straggler)`},
		{"compute scale", `{"name": "x", "workers": 2, "compute": {"kind": "straggler", "factor": 2, "scale": [1, 2]}}`, `unknown field "scale"`},
		{"compute min", `{"name": "x", "compute": {"kind": "straggler", "factor": 2, "min": 1}}`, `unknown field "min"`},
		{"compute max", `{"name": "x", "compute": {"kind": "straggler", "factor": 2, "max": 3}}`, `unknown field "max"`},
		{"compute sigma", `{"name": "x", "compute": {"kind": "straggler", "factor": 2, "sigma": 0.5}}`, `unknown field "sigma"`},
		{"compute seed", `{"name": "x", "compute": {"kind": "straggler", "factor": 2, "seed": 3}}`, `unknown field "seed"`},
		{"one policy round", `{"name": "x", "netmax": {"policy_rounds": 1}}`, "netmax.policy_rounds must be >= 2"},
		{"policy rounds above cap", `{"name": "x", "netmax": {"policy_rounds": 65}}`, "netmax.policy_rounds must be <= 64"},
		{"netmax epsilon", `{"name": "x", "netmax": {"epsilon": 0.01}}`, `unknown field "epsilon"`},
		{"netmax fixed blend", `{"name": "x", "netmax": {"fixed_blend": true}}`, `unknown field "fixed_blend"`},
		{"random churn seed", `{"name": "x", "failures": {"random_churn": {"horizon_secs": 10, "crashes_per_worker": 1, "mean_down_secs": 1, "seed": 3}}}`, `unknown field "seed"`},
		{"quick duration", `{"name": "x", "runtime": "live", "live": {"iterations": 5}, "quick": {"duration_secs": 1}}`, `unknown field "duration_secs"`},
		{"quick iterations on engine", `{"name": "x", "quick": {"iterations": 5}}`, "quick.iterations is live-only"},
		{"live output", `{"name": "x", "runtime": "live", "live": {"iterations": 5}, "output": {"curves": true}}`, "output is engine-only"},
		{"straggler range", `{"name": "x", "workers": 4, "compute": {"kind": "straggler", "worker": 6, "factor": 5}}`, "outside [0, 4)"},
		{"live without bound", `{"name": "x", "runtime": "live", "live": {}}`, "need a bound"},
		{"live with engine block", `{"name": "x", "runtime": "live", "epochs": 4, "live": {"iterations": 5}}`, "engine-only"},
		{"engine with live block", `{"name": "x", "live": {"iterations": 5}}`, "only valid with runtime"},
		{"live bad transport", `{"name": "x", "runtime": "live", "live": {"iterations": 5, "transport": "udp"}}`, "unknown live transport"},
		{"live beta above 1", `{"name": "x", "runtime": "live", "live": {"iterations": 5}, "netmax": {"beta": 1.5}}`, "netmax.beta must be in (0, 1)"},
		{"live beta negative", `{"name": "x", "runtime": "live", "live": {"iterations": 5}, "netmax": {"beta": -0.2}}`, "netmax.beta must be in (0, 1)"},
		{"live ts_secs", `{"name": "x", "runtime": "live", "live": {"iterations": 5}, "netmax": {"ts_secs": 1}}`, "netmax.ts_secs is engine-only"},
		{"live detect_secs", `{"name": "x", "runtime": "live", "live": {"iterations": 5}, "failures": {"detect_secs": 1, "events": [{"kind": "leave", "worker": 1, "at": 1}]}}`, "failures.detect_secs is engine-only"},
		{"live random churn", `{"name": "x", "runtime": "live", "live": {"iterations": 5}, "failures": {"random_churn": {"horizon_secs": 10, "crashes_per_worker": 1, "mean_down_secs": 1}}}`, "failures.random_churn is engine-only"},
		{"live hang", `{"name": "x", "runtime": "live", "live": {"iterations": 5}, "failures": {"events": [{"kind": "hang", "worker": 1, "at": 1, "until": 2}]}}`, `kind "hang" is engine-only`},
		{"live blackout", `{"name": "x", "runtime": "live", "live": {"iterations": 5}, "failures": {"events": [{"kind": "blackout", "a": 0, "b": 1, "at": 1, "until": 2}]}}`, `kind "blackout" is engine-only`},
		{"live crash after rejoin", `{"name": "x", "runtime": "live", "live": {"iterations": 5}, "failures": {"events": [{"kind": "crash", "worker": 1, "at": 0.6, "rejoin": 0.2}]}}`, "must come after the crash"},
		{"live one policy round", `{"name": "x", "runtime": "live", "live": {"iterations": 5}, "netmax": {"policy_rounds": 1}}`, "netmax.policy_rounds must be >= 2"},
		{"live churn", `{"name": "x", "runtime": "live", "live": {"iterations": 5, "churn": [{"worker": 1, "at_secs": 0.2, "rejoin_secs": 0.6}]}}`, `unknown field "churn"`},
		{"live beta", `{"name": "x", "runtime": "live", "live": {"iterations": 5, "beta": 0.3}}`, `unknown field "beta"`},
		{"live uniform", `{"name": "x", "runtime": "live", "live": {"iterations": 5, "uniform": true}}`, `unknown field "uniform"`},
		{"live stale_periods", `{"name": "x", "runtime": "live", "live": {"iterations": 5, "stale_periods": 2}}`, `unknown field "stale_periods"`},
		{"stale periods negative", `{"name": "x", "netmax": {"stale_periods": -1}}`, "netmax.stale_periods must be >= 1, got -1"},
		{"beta above 1", `{"name": "x", "netmax": {"beta": 1.5}}`, "netmax.beta must be in (0, 1), got 1.5"},
		{"beta negative", `{"name": "x", "netmax": {"beta": -0.2}}`, "netmax.beta must be in (0, 1), got -0.2"},
		{"ts_secs negative", `{"name": "x", "netmax": {"ts_secs": -1}}`, "netmax.ts_secs must be positive, got -1"},
		{"policy rounds negative", `{"name": "x", "netmax": {"policy_rounds": -1}}`, "netmax.policy_rounds must be >= 2 (one round searches a one-point grid), got -1"},
		{"stale periods above cap", `{"name": "x", "netmax": {"stale_periods": 100000000000}}`, "netmax.stale_periods must be <= 1000"},
		{"live stale periods above cap", `{"name": "x", "runtime": "live", "live": {"iterations": 5}, "netmax": {"stale_periods": 100000000000}}`, "netmax.stale_periods must be <= 1000"},
		{"live ts_millis above cap", `{"name":"x","runtime":"live","model":"MobileNet","dataset":"MNIST","workers":4,"live":{"transport":"local","iterations":5,"ts_millis":10000000000000}}`, "live.ts_millis must be <= 3600000"},
		{"live pull timeout", `{"name": "x", "runtime": "live", "live": {"iterations": 5, "pull_timeout_secs": 1}}`, `unknown field "pull_timeout_secs"`},
		{"live segments", `{"name": "x", "runtime": "live", "workers": 2, "partition": {"kind": "segments", "segments": [1, 2]}, "live": {"iterations": 5}}`, "engine-only"},
		{"quick breaks segments", `{"name": "x", "partition": {"preset": "paper-8"}, "quick": {"workers": 4}}`, "quick overrides"},
		{"bad quick", `{"name": "x", "quick": {"epochs": -1}}`, "epochs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.raw))
			if err == nil {
				t.Fatalf("Parse accepted malformed manifest %s", c.raw)
			}
			if !strings.Contains(err.Error(), c.fragment) {
				t.Fatalf("error %q does not mention %q", err, c.fragment)
			}
		})
	}
}

// TestScenarioLibraryValidates loads every checked-in manifest and suite
// under scenarios/, validates it, checks its name matches its filename, and
// verifies the resolved round-trip fixed point on real files.
func TestScenarioLibraryValidates(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	manifests, suites := 0, 0
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		if IsSuite(raw) {
			suites++
		} else {
			manifests++
		}
		t.Run(ent.Name(), func(t *testing.T) {
			m, s, err := LoadAny(path)
			if err != nil {
				t.Fatalf("LoadAny: %v", err)
			}
			want := strings.TrimSuffix(ent.Name(), ".json")
			if s != nil {
				if s.Name != want {
					t.Errorf("suite name %q does not match filename %q", s.Name, want)
				}
				if s.Description == "" {
					t.Errorf("suite %s has no description", ent.Name())
				}
				r, err := s.Resolve(false)
				if err != nil {
					t.Fatalf("Resolve: %v", err)
				}
				raw, _ := json.MarshalIndent(r, "", "  ")
				back, err := ParseSuite(raw)
				if err != nil {
					t.Fatalf("ParseSuite(Resolve): %v", err)
				}
				again, err := back.Resolve(false)
				if err != nil {
					t.Fatalf("re-Resolve: %v", err)
				}
				if !reflect.DeepEqual(r, again) {
					t.Fatalf("resolved suite round trip differs for %s", ent.Name())
				}
				return
			}
			if m.Name != want {
				t.Errorf("manifest name %q does not match filename %q", m.Name, want)
			}
			if m.Description == "" {
				t.Errorf("manifest %s has no description", ent.Name())
			}
			r := m.Resolved()
			raw, _ := json.MarshalIndent(r, "", "  ")
			back, err := Parse(raw)
			if err != nil {
				t.Fatalf("Parse(Resolved): %v", err)
			}
			if !reflect.DeepEqual(r, back.Resolved()) {
				t.Fatalf("resolved round trip differs for %s", ent.Name())
			}
		})
	}
	if manifests < 10 {
		t.Fatalf("scenario library has only %d manifests; the checked-in set should cover the paper's figures plus the churn/compression/cross-region matrices", manifests)
	}
	if suites < 3 {
		t.Fatalf("scenario library has only %d suites; the checked-in set should cover the paper comparison, the codec sweep and the multi-seed replication", suites)
	}
}

// TestApplyQuick checks override application and clearing.
func TestApplyQuick(t *testing.T) {
	m := minimal()
	m.Quick = &QuickSpec{Workers: 2, Epochs: 1}
	q := m.ApplyQuick()
	if q.Workers != 2 || q.Epochs != 1 {
		t.Fatalf("quick overrides not applied: %+v", q)
	}
	if q.Quick != nil {
		t.Fatalf("quick block survived ApplyQuick")
	}
	if m.Workers != 4 || m.Epochs != 2 {
		t.Fatalf("ApplyQuick mutated the original")
	}
	if again := q.ApplyQuick(); !reflect.DeepEqual(q, again) {
		// Second application is the identity (no Quick block left).
		t.Fatalf("ApplyQuick not idempotent after clearing: %+v vs %+v", q, again)
	}
}

// TestUnencodableResultLeavesNoFile hands writeJSON a value it cannot
// encode: it returns the error and creates no file.
func TestUnencodableResultLeavesNoFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "result.json")
	if err := writeJSON(path, map[string]float64{"loss": math.NaN()}); err == nil {
		t.Fatal("writeJSON encoded a NaN without error")
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("result.json of a failed encode: stat error %v, want it absent", err)
	}
}

// hot is a manifest whose learning rate makes NetMax's training diverge.
const hot = `{"name":"hot","model":"ResNet18","dataset":"CIFAR10","workers":4,"epochs":2,"lr":1000,"seed":1}`

// TestDivergedRunFailsTyped runs hot without file output and with an out
// dir: both fail with ErrDiverged naming the run, and the out dir holds no
// file of it.
func TestDivergedRunFailsTyped(t *testing.T) {
	for _, out := range []string{"", t.TempDir()} {
		m, err := Parse([]byte(hot))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(m, RunOptions{OutDir: out})
		if !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), `"hot"`) {
			t.Fatalf("out %q: Run error %v, want ErrDiverged naming the run", out, err)
		}
		if rep != nil {
			t.Fatalf("out %q: a diverged run returned a report", out)
		}
		if out == "" {
			continue
		}
		if _, err := os.Stat(filepath.Join(out, "hot", "result.json")); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("result.json of a diverged run: stat error %v, want it absent", err)
		}
	}
	// A suite passes its member's error up.
	s := &Suite{Name: "hot-suite", Runs: []SuiteMember{{Manifest: mustParse(t, hot)}}}
	if _, err := RunSuite(s, SuiteRunOptions{}); !errors.Is(err, ErrDiverged) {
		t.Fatalf("RunSuite error %v, want ErrDiverged", err)
	}
}

// TestDivergingKindsFailTyped runs hot on every other engine algorithm
// kind: each returns a finite, encodable result or ErrDiverged.
func TestDivergingKindsFailTyped(t *testing.T) {
	for _, a := range algorithms {
		if a.kind == "netmax" {
			continue
		}
		t.Run(a.kind, func(t *testing.T) {
			m := mustParse(t, hot)
			m.Algorithm = a.kind
			rep, err := Run(m, RunOptions{})
			if err != nil {
				if !errors.Is(err, ErrDiverged) {
					t.Fatalf("Run error %v, want nil or ErrDiverged", err)
				}
				return
			}
			if l := rep.Engine.FinalLoss; math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("final loss %v without ErrDiverged", l)
			}
			if _, err := json.Marshal(rep.Engine); err != nil {
				t.Fatalf("finite result does not encode: %v", err)
			}
		})
	}
}

// mustParse parses a manifest, failing the test on error.
func mustParse(t *testing.T, raw string) *Manifest {
	t.Helper()
	m, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEmptyShardIsAManifestError runs a label-skew manifest that passes
// validation but leaves workers with no training rows: 250 MNIST workers
// that each lose classes 1-9 share class 0's rows, which run out. Both
// runtimes' set-up must name the first starved worker instead of reaching
// a runner, whose batch cursor would divide by the empty shard's length.
func TestEmptyShardIsAManifestError(t *testing.T) {
	lost := make([]string, 250)
	for i := range lost {
		lost[i] = "[1,2,3,4,5,6,7,8,9]"
	}
	m, err := Parse([]byte(`{"name":"skew250","dataset":"MNIST","model":"MobileNet","workers":250,"epochs":1,` +
		`"partition":{"kind":"label-skew","lost_labels":[` + strings.Join(lost, ",") + `]}}`))
	if err != nil {
		t.Fatalf("the manifest no longer validates, so this test no longer reaches set-up: %v", err)
	}
	if _, err := Run(m, RunOptions{}); err == nil || !strings.Contains(err.Error(), "gets no training rows") {
		t.Fatalf("Run error %v, want a starved worker named", err)
	}
	m.Runtime, m.Epochs, m.Live = "live", 0, &LiveSpec{Iterations: 1}
	if _, _, _, err := m.BuildLive(); err == nil || !strings.Contains(err.Error(), "gets no training rows") {
		t.Fatalf("BuildLive error %v, want a starved worker named", err)
	}
}

// TestRunEmitsResolvedManifest runs a tiny scenario with an output
// directory and checks the reproducibility contract: resolved.json +
// result.json are written, the resolved manifest re-loads cleanly, and
// re-running it reproduces the numbers bitwise.
func TestRunEmitsResolvedManifest(t *testing.T) {
	m := minimal()
	m.Output = &OutputSpec{Curves: true}
	out := t.TempDir()
	rep, err := Run(m, RunOptions{OutDir: out})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Engine == nil {
		t.Fatalf("engine scenario returned no engine result")
	}
	dir := filepath.Join(out, m.Name)
	if rep.Dir != dir {
		t.Fatalf("Report.Dir = %q, want %q", rep.Dir, dir)
	}
	for _, f := range []string{"resolved.json", "result.json", "curve.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("expected output %s: %v", f, err)
		}
	}
	back, err := Load(filepath.Join(dir, "resolved.json"))
	if err != nil {
		t.Fatalf("emitted resolved manifest does not reload: %v", err)
	}
	rep2, err := Run(back, RunOptions{})
	if err != nil {
		t.Fatalf("re-running resolved manifest: %v", err)
	}
	a, b := rep.Engine, rep2.Engine
	if a.FinalLoss != b.FinalLoss || a.FinalAccuracy != b.FinalAccuracy ||
		a.TotalTime != b.TotalTime || a.GlobalSteps != b.GlobalSteps || a.BytesSent != b.BytesSent {
		t.Fatalf("resolved manifest does not reproduce the run: %+v vs %+v", a, b)
	}
}

// TestRunLive exercises the live runtime end to end on the local
// transport.
func TestRunLive(t *testing.T) {
	m := &Manifest{
		Name: "t-live-run", Runtime: "live", Model: "MobileNet", Dataset: "MNIST",
		Workers: 2,
		Live:    &LiveSpec{Iterations: 5, TsMillis: 50},
	}
	rep, err := Run(m, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Live == nil {
		t.Fatalf("live scenario returned no live stats")
	}
	total := 0
	for _, n := range rep.Live.IterationsPerWorker {
		total += n
	}
	if total != 10 {
		t.Fatalf("expected 2 workers x 5 iterations, got %v", rep.Live.IterationsPerWorker)
	}
}

// TestBuildLiveConfigEncoding pins how BuildLive maps a live manifest onto
// live.Config, which has one encoding: the netmax block becomes the
// core.Options the engine takes, with Ts the live.ts_millis period in
// seconds and the library defaults explicit, and the pull deadline is
// DefaultPullTimeout.
func TestBuildLiveConfigEncoding(t *testing.T) {
	build := func(l *LiveSpec, nm *core.Options) live.Config {
		t.Helper()
		m := &Manifest{Name: "t-live-encoding", Runtime: "live", Model: "MobileNet", Dataset: "MNIST", Live: l, NetMax: nm}
		cfg, _, closeHub, err := m.BuildLive()
		if err != nil {
			t.Fatal(err)
		}
		defer closeHub()
		return cfg
	}
	cfg := build(&LiveSpec{Iterations: 1}, nil)
	want := core.Options{TsSecs: 0.5, Beta: 0.5, PolicyRounds: 10, StalePeriods: 3}
	if cfg.NetMax != want || cfg.PullTimeout != 2*time.Second || cfg.Failures != nil {
		t.Fatalf("defaults: NetMax %+v, PullTimeout %v, Failures %v; want %+v, 2s, nil", cfg.NetMax, cfg.PullTimeout, cfg.Failures, want)
	}
	cfg = build(&LiveSpec{Iterations: 1, TsMillis: 200},
		&core.Options{Beta: 0.3, PolicyRounds: 4, UniformPolicy: true, StalePeriods: 5})
	want = core.Options{TsSecs: 0.2, Beta: 0.3, PolicyRounds: 4, UniformPolicy: true, StalePeriods: 5}
	if cfg.NetMax != want {
		t.Fatalf("set: NetMax %+v; want %+v", cfg.NetMax, want)
	}
}

// TestZeroNetMaxBlockResolvesInCore checks that the manifest takes its
// NetMax defaults from core.Options.Resolved: an absent or empty netmax
// block resolves to core.Options{}.Resolved() on the engine, and to the
// same with TsSecs 0 on live, whose period is live.ts_millis.
func TestZeroNetMaxBlockResolvesInCore(t *testing.T) {
	want := core.Options{}.Resolved()
	for _, c := range []struct {
		runtime string
		ts      float64
	}{{"engine", want.TsSecs}, {"live", 0}} {
		for _, nm := range []*core.Options{nil, {}} {
			m := &Manifest{Name: "x", Runtime: c.runtime, NetMax: nm}
			if c.runtime == "live" {
				m.Live = &LiveSpec{Iterations: 1}
			}
			w := want
			w.TsSecs = c.ts
			if got := m.Resolved().NetMax; got == nil || *got != w {
				t.Fatalf("%s, block %v: resolved netmax %+v, want %+v", c.runtime, nm, got, w)
			}
			if nm != nil && *nm != (core.Options{}) {
				t.Fatalf("%s: Resolved wrote into the manifest's block: %+v", c.runtime, *nm)
			}
		}
	}
}

// TestBuildLiveFailures checks that a live manifest takes the engine's
// failures block: crash and leave events validate, and BuildLive hands
// live.Config the schedule the engine would build from them.
func TestBuildLiveFailures(t *testing.T) {
	m, err := Parse([]byte(`{"name": "t-live-failures", "runtime": "live", "model": "MobileNet", "dataset": "MNIST",
		"workers": 3, "live": {"iterations": 1},
		"failures": {"events": [{"kind": "crash", "worker": 1, "at": 0.2, "rejoin": 0.6}, {"kind": "leave", "worker": 2, "at": 0.5}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, closeHub, err := m.BuildLive()
	if err != nil {
		t.Fatal(err)
	}
	defer closeHub()
	want := simnet.NewFailureSchedule().Crash(1, 0.2, 0.6).Leave(2, 0.5).Events()
	if cfg.Failures == nil || !reflect.DeepEqual(cfg.Failures.Events(), want) {
		t.Fatalf("live.Config.Failures = %+v, want events %+v", cfg.Failures, want)
	}
}

// TestLiveSummaryFields checks that a live run's summary line carries every
// number the live runtime reports: accuracy and loss, iterations, policies
// generated, pulls, failed pulls, bytes on wire and wall time.
func TestLiveSummaryFields(t *testing.T) {
	rep := &Report{
		Manifest: &Manifest{Name: "t-live", Algorithm: "netmax", Model: "MobileNet", Workers: 2},
		Live: &live.Stats{
			IterationsPerWorker: []int{5, 7},
			FinalAccuracy:       0.875,
			FinalLoss:           0.31416,
			PolicyVersions:      3,
			BytesOnWire:         4096,
			Pulls:               11,
			PeerDownErrors:      2,
			Elapsed:             1500 * time.Millisecond,
		},
	}
	want := "t-live [live/netmax MobileNet x2]: acc 87.50%, loss 0.3142, 12 iterations, 3 policies, 11 pulls, 2 peer-down pulls, 4096 bytes on wire, 1.5s"
	if got := rep.Summary(); got != want {
		t.Fatalf("Summary() = %q\nwant        %q", got, want)
	}
}
