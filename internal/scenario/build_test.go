package scenario

import (
	"math"
	"reflect"
	"testing"

	"netmax/internal/simnet"
)

// TestEveryKindBuildsItsLayout builds an engine manifest for each topology
// and network kind the validator accepts and compares the built network
// with its simnet constructor's: the same placement and graph, and the
// same rate on every link at times across ten slow-link periods.
// buildTopology and buildNetwork end in a default, so a kind missing from
// their switches would build the paper cluster or the heterogeneous
// network without a word.
func TestEveryKindBuildsItsLayout(t *testing.T) {
	const workers, seed = 8, 5
	period := DefaultSlowPeriod
	topologies := map[string]func() *simnet.Network{
		"paper-cluster":  func() *simnet.Network { return simnet.NewStatic(simnet.PaperCluster(workers)) },
		"single-machine": func() *simnet.Network { return simnet.NewStatic(simnet.SingleMachine(workers)) },
		"ring": func() *simnet.Network {
			topo := simnet.SingleMachine(workers)
			topo.Adj = simnet.Ring(workers)
			return simnet.NewStatic(topo)
		},
		"cross-region": simnet.NewCrossRegion,
	}
	cluster := simnet.PaperCluster(workers)
	networks := map[string]func() *simnet.Network{
		"heterogeneous": func() *simnet.Network {
			return simnet.NewHeterogeneousPeriod(cluster, seed, DefaultHorizon, period)
		},
		"homogeneous": func() *simnet.Network { return simnet.NewHomogeneous(cluster) },
		"static":      func() *simnet.Network { return simnet.NewStatic(cluster) },
		"shuffled": func() *simnet.Network {
			return simnet.NewShuffledRates(cluster, seed, DefaultHorizon, period)
		},
		"cross-region": simnet.NewCrossRegion,
	}
	// build builds the manifest with the given topology and network kinds;
	// the cross-region kind takes the other block's cross-region kind too.
	build := func(topology, network string) *simnet.Network {
		t.Helper()
		m := &Manifest{
			Name: "t-layout", Model: "MobileNet", Dataset: "MNIST",
			Workers: workers, Epochs: 1, Seed: seed,
			Topology: &TopologySpec{Kind: topology},
			Network:  &NetworkSpec{Kind: network},
		}
		if topology == "cross-region" || network == "cross-region" {
			m.Workers, m.Topology.Kind, m.Network.Kind = len(simnet.Regions), "cross-region", "cross-region"
		}
		cfg, _, err := m.BuildEngine()
		if err != nil {
			t.Fatalf("topology %q, network %q: %v", topology, network, err)
		}
		return cfg.Net
	}
	for _, kind := range acceptedValues(t, `{"name": "x", "topology": {"kind": "?"}}`) {
		want, ok := topologies[kind]
		if !ok {
			t.Errorf("topology kind %q: no expected layout", kind)
			continue
		}
		sameNetwork(t, "topology "+kind, build(kind, "static"), want(), period)
	}
	for _, kind := range acceptedValues(t, `{"name": "x", "network": {"kind": "?"}}`) {
		want, ok := networks[kind]
		if !ok {
			t.Errorf("network kind %q: no expected layout", kind)
			continue
		}
		sameNetwork(t, "network "+kind, build("", kind), want(), period)
	}
}

// sameNetwork fails unless got and want place the same workers on the same
// machines over the same graph and give every link the same rate, bitwise,
// in the middle of each of the first ten periods.
func sameNetwork(t *testing.T, what string, got, want *simnet.Network, period float64) {
	t.Helper()
	if !reflect.DeepEqual(got.Topo, want.Topo) {
		t.Errorf("%s: topology %+v, want %+v", what, got.Topo, want.Topo)
		return
	}
	for k := 0; k < 10; k++ {
		now := (float64(k) + 0.5) * period
		for i := 0; i < want.Topo.M; i++ {
			for j := 0; j < want.Topo.M; j++ {
				if i == j {
					continue
				}
				if g, w := got.Rate(i, j, now), want.Rate(i, j, now); math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("%s: rate %d→%d at %gs is %g, want %g", what, i, j, now, g, w)
					return
				}
			}
		}
	}
}
