package scenario

import (
	"reflect"
	"testing"

	"netmax/internal/data"
	"netmax/internal/nn"
)

// shardLabels flattens a partition's per-worker labels, which is enough to
// tell two partitions (or two generated datasets) apart.
func shardLabels(p *data.Partition) [][]int {
	out := make([][]int, len(p.Shards))
	for i, s := range p.Shards {
		out[i] = s.Labels
	}
	return out
}

// initialModel is the model every worker starts from: the engine and the
// live runtime both build it from the spec and the config's seed.
func initialModel(spec nn.ModelSpec, p *data.Partition, seed int64) []float64 {
	m := spec.Build(seed, p.Shards[0].Dim(), p.Shards[0].Classes)
	return m.CopyVector(make([]float64, m.VectorLen()))
}

func TestDataSeedDefaultsToSeed(t *testing.T) {
	m := minimal()
	m.Seed = 7
	if got := *m.Resolved().DataSeed; got != 7 {
		t.Fatalf("data_seed resolved to %d, want the manifest seed 7", got)
	}
	if got := *(&Manifest{Name: "t-defaults"}).Resolved().DataSeed; got != DefaultSeed {
		t.Fatalf("data_seed resolved to %d, want the default seed %d", got, DefaultSeed)
	}
	// An explicit data_seed equal to the seed builds the same data as none.
	implicit, _, err := m.BuildEngine()
	if err != nil {
		t.Fatal(err)
	}
	m.DataSeed = i64Ptr(7)
	explicit, _, err := m.BuildEngine()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shardLabels(implicit.Part), shardLabels(explicit.Part)) {
		t.Fatal("data_seed equal to seed built a different partition")
	}
}

func TestDataSeedChangesPartitionNotModel(t *testing.T) {
	base := minimal()
	base.Seed = 5
	a, _, err := base.BuildEngine()
	if err != nil {
		t.Fatal(err)
	}
	other := minimal()
	other.Seed = 5
	other.DataSeed = i64Ptr(9)
	b, _, err := other.BuildEngine()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(shardLabels(a.Part), shardLabels(b.Part)) {
		t.Fatal("an explicit data_seed left the partition unchanged")
	}
	if a.Seed != b.Seed {
		t.Fatalf("data_seed moved the model seed: %d vs %d", a.Seed, b.Seed)
	}
	if !reflect.DeepEqual(initialModel(a.Spec, a.Part, a.Seed), initialModel(b.Spec, b.Part, b.Seed)) {
		t.Fatal("data_seed changed the initial model")
	}
}

func TestSuiteReplicasVaryDataSeed(t *testing.T) {
	base := &Manifest{
		Name: "t-base", Model: "MobileNet", Dataset: "MNIST",
		Workers: 4, Epochs: 1, Seed: 3,
		Network: &NetworkSpec{Kind: "static"},
	}
	grid := &GridSpec{Algorithms: []string{"adpsgd"}, Replicate: &ReplicateSpec{N: 2}}
	r, err := (&Suite{Name: "t-replicas", Base: &SuiteMember{Manifest: base}, Grid: grid}).Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	for _, mem := range r.Runs {
		if m := mem.Manifest; *m.DataSeed != m.Seed {
			t.Errorf("%s: data_seed %d, want its replica seed %d", m.Name, *m.DataSeed, m.Seed)
		}
	}
	if *r.Runs[0].Manifest.DataSeed == *r.Runs[1].Manifest.DataSeed {
		t.Fatal("replicas share their data seed")
	}

	// A base that pins data_seed keeps the data fixed across replicas.
	base.DataSeed = i64Ptr(11)
	r, err = (&Suite{Name: "t-replicas", Base: &SuiteMember{Manifest: base}, Grid: grid}).Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	for _, mem := range r.Runs {
		if got := *mem.Manifest.DataSeed; got != 11 {
			t.Errorf("%s: data_seed %d, want the base's 11", mem.Manifest.Name, got)
		}
	}
}

func TestBuildLiveHonoursDataSeed(t *testing.T) {
	build := func(dataSeed *int64) ([][]int, []float64) {
		t.Helper()
		m := &Manifest{
			Name: "t-live-data", Runtime: "live", Model: "MobileNet", Dataset: "MNIST",
			Seed: 5, DataSeed: dataSeed, Live: &LiveSpec{Iterations: 1},
		}
		cfg, _, closeHub, err := m.BuildLive()
		if err != nil {
			t.Fatal(err)
		}
		defer closeHub()
		return shardLabels(cfg.Part), initialModel(cfg.Spec, cfg.Part, cfg.Seed)
	}
	implicitPart, implicitModel := build(nil)
	samePart, _ := build(i64Ptr(5))
	otherPart, otherModel := build(i64Ptr(9))
	if !reflect.DeepEqual(implicitPart, samePart) {
		t.Fatal("live data_seed equal to seed built a different partition")
	}
	if reflect.DeepEqual(implicitPart, otherPart) {
		t.Fatal("live data_seed left the partition unchanged")
	}
	if !reflect.DeepEqual(implicitModel, otherModel) {
		t.Fatal("live data_seed changed the initial model")
	}
}
