package baselines

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"netmax/internal/codec"
	"netmax/internal/core"
	"netmax/internal/engine"
	"netmax/internal/policy"
	"netmax/internal/simnet"
)

// refUniform is the reference AD-PSGD behavior, written out on its own:
// uniform selection over a (possibly sparsified) adjacency with departed
// peers masked out, and a two-sided ½-average scaled by the share of the
// model each pull moves. core.NewADPSGD, and SAPS-PSGD's wrapper of it,
// must run bit for bit as this does.
type refUniform struct {
	p     [][]float64
	down  []bool // departed workers, from the latest membership event
	share float64
}

func newRefUniform(adj [][]bool, share float64) *refUniform {
	return &refUniform{p: policy.Uniform(adj), down: make([]bool, len(adj)), share: share}
}

func (u *refUniform) Plan(i int, now float64, rng *rand.Rand) engine.Pull {
	return engine.Pull{Peer: policy.Sample(u.p[i], i, u.down, rng), Coef: 0.5 * u.share, TwoSided: true, Share: u.share}
}

func (u *refUniform) OnIterationEnd(i, j int, s, now float64) {}

func (u *refUniform) OnMembership(alive []bool, now float64) {
	for k, a := range alive {
		u.down[k] = !a
	}
}

// refHop is the reference Hop behavior: refUniform behind the staleness
// gate, reading refUniform's membership.
type refHop struct {
	refUniform
	staleness int
	iters     []int
	inFlight  []bool
}

func newRefHop(adj [][]bool, staleness int) *refHop {
	m := len(adj)
	return &refHop{
		refUniform: *newRefUniform(adj, 1),
		staleness:  staleness,
		iters:      make([]int, m),
		inFlight:   make([]bool, m),
	}
}

func (h *refHop) Plan(i int, now float64, rng *rand.Rand) engine.Pull {
	if h.inFlight[i] {
		h.inFlight[i] = false
		h.iters[i]++
	}
	if h.iters[i] >= h.slowest()+h.staleness {
		return engine.Pull{Wait: true}
	}
	return h.refUniform.Plan(i, now, rng)
}

func (h *refHop) slowest() int {
	s := math.MaxInt
	for j, n := range h.iters {
		if !h.down[j] {
			s = min(s, n)
		}
	}
	return s
}

func (h *refHop) OnIterationEnd(i, j int, iterSecs, now float64) {
	h.inFlight[i] = true
}

func (h *refHop) OnMembership(alive []bool, now float64) {
	slowest := h.slowest()
	for k, a := range alive {
		if a && h.down[k] {
			h.inFlight[k] = false
			if slowest != math.MaxInt {
				h.iters[k] = max(h.iters[k], slowest)
			}
		}
	}
	h.refUniform.OnMembership(alive, now)
}

// TestNodeBaselinesMatchReference runs AD-PSGD, SAPS-PSGD and Hop, all on
// core's Node, against the reference behaviors above and requires the
// results to be deeply equal: the 8-worker heterogeneous cluster at three
// seeds, failure-free and through a crash with a rejoin, a leave and a
// hang, under the raw and the float32 codec.
func TestNodeBaselinesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		// Runs read a configuration and never write it, so they share one.
		base := hetConfig(8, 1, seed)
		T := engine.RunAsync(base, newRefUniform(base.Net.Topo.Adj, 1), "AD-PSGD").TotalTime
		for _, name := range codec.Names() {
			for _, churn := range []bool{false, true} {
				mk := func() *engine.Config {
					cfg := *base
					cfg.Codec, _ = codec.ByName(name)
					if churn {
						cfg.Failures = simnet.NewFailureSchedule().
							Crash(1, 0.2*T, 0.5*T).
							Hang(5, 0.3*T, 0.45*T).
							Leave(3, 0.6*T)
					}
					return &cfg
				}
				for _, c := range []struct {
					algo string
					run  func(*engine.Config) *engine.Result
					ref  engine.AsyncBehavior
				}{
					{"AD-PSGD", core.RunADPSGD, newRefUniform(base.Net.Topo.Adj, 1)},
					{"SAPS-PSGD", RunSAPS, newRefUniform(sapsSubgraph(base), sapsSparsity)},
					{"Hop", func(cfg *engine.Config) *engine.Result { return RunHop(cfg, DefaultHopStaleness) }, newRefHop(base.Net.Topo.Adj, DefaultHopStaleness)},
				} {
					got := c.run(mk())
					want := engine.RunAsync(mk(), c.ref, c.algo)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d, %s codec, churn %v: %s differs from the reference: loss %v vs %v, virtual time %v vs %v",
							seed, name, churn, c.algo, got.FinalLoss, want.FinalLoss, got.TotalTime, want.TotalTime)
					}
				}
			}
		}
	}
}
