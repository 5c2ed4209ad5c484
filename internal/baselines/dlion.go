package baselines

import (
	"math/rand"

	"netmax/internal/engine"
	"netmax/internal/policy"
)

// dlionAsync implements a DLion-style behavior [24]: uniform neighbor
// selection, but the amount of model transferred scales with the link's
// current capacity — slow links carry a smaller partition of the model.
// This keeps iteration times flat across links at the cost of exchanging
// partial models, which the paper notes "may cause divergence of the
// training" (Section VI); here the partial exchange shows up as slower
// consensus.
type dlionAsync struct {
	cfg *engine.Config
	p   [][]float64
	// refRate is the rate that earns a full-model transfer; slower links
	// transfer proportionally less, floored at minFraction.
	refRate     float64
	minFraction float64
}

// Plan sizes the partition by the link's current rate and scales the
// averaging weight by it: only part of the model arrives, so only that
// share of the blend applies (in expectation over the chosen partition).
func (d *dlionAsync) Plan(i int, now float64, rng *rand.Rand) engine.Pull {
	j := policy.Sample(d.p[i], i, rng)
	if j == i {
		return engine.Pull{Peer: i}
	}
	frac := d.cfg.Net.Rate(i, j, now) / d.refRate
	if frac > 1 {
		frac = 1
	}
	if frac < d.minFraction {
		frac = d.minFraction
	}
	return engine.Pull{Peer: j, Coef: 0.5 * frac, Share: frac}
}

func (d *dlionAsync) OnIterationEnd(i, j int, s, now float64) {}
func (d *dlionAsync) Tick(now float64)                        {}

// RunDLion trains with the DLion-style capacity-proportional partial model
// exchange.
func RunDLion(cfg *engine.Config) *engine.Result {
	b := &dlionAsync{
		cfg:         cfg,
		p:           policy.Uniform(cfg.Net.Topo.Adj),
		refRate:     cfg.Net.IntraRate,
		minFraction: 0.1,
	}
	if b.refRate == 0 {
		b.refRate = 1
	}
	return engine.RunAsync(cfg, b, "DLion")
}
