// Package core implements NetMax, the paper's primary contribution: the
// consensus SGD algorithm (Algorithm 2) driven by the adaptive communication
// policy of the Network Monitor (Algorithms 1 and 3).
//
// Each worker trains a model replica on its shard. Per iteration it
//  1. selects one neighbor m with probability p[i][m] (fast links likely),
//  2. requests x_m and, overlapped with the transfer, performs the local
//     gradient step x_i ← x_i − α∇f(x_i),
//  3. on receipt applies the consensus step
//     x_i ← x_i − αρ (d_im+d_mi)/(2 p_im) (x_i − x_m),
//     so that rarely-pulled neighbors get proportionally larger weight,
//  4. folds the measured iteration time into its EMA time vector, which the
//     Network Monitor collects every Ts seconds to regenerate (P, ρ).
//
// A worker's decisions — peer selection, blend coefficient, EMA update,
// policy adoption and peer masking — live in Node, which holds no model and
// no clock, and is every asynchronous decentralized worker: plain AD-PSGD
// is the averaging node on a fixed uniform policy (NewADPSGD). The
// discrete-event runtime here drives one Node per simulated worker; the
// live runtime (internal/live) drives the same type from each worker
// goroutine. Both take their nodes and PolicySource from NewControl, on
// the settings Options.Resolved fills in; a run on a fixed uniform policy
// (AD-PSGD, or NetMax's uniform ablation) builds no Network Monitor.
package core

import (
	"math/rand"
	"sync/atomic"

	"netmax/internal/engine"
	"netmax/internal/monitor"
	"netmax/internal/policy"
	"netmax/internal/simnet"
)

// DefaultMonitorTs is the Network Monitor period in virtual seconds: the
// paper's Ts = 120s over the evaluation's simnet.TimeScale.
const DefaultMonitorTs = 120.0 / simnet.TimeScale

// DefaultBeta is the EMA smoothing factor β of Algorithm 2.
const DefaultBeta = 0.5

// Options tunes NetMax beyond the engine Config. A zero field is unset;
// Resolved gives each its default. It is also a manifest's netmax block,
// under the json names below.
type Options struct {
	// TsSecs is the Network Monitor schedule period in seconds: virtual
	// seconds on the engine, wall-clock seconds on the live runtime.
	TsSecs float64 `json:"ts_secs,omitempty"`
	// Beta is the EMA smoothing factor β of Algorithm 2 (paper suggests
	// adapting it to network dynamics).
	Beta float64 `json:"beta,omitempty"`
	// PolicyRounds sets Algorithm 3's K = R grid. The convergence target
	// is always Eq. 9's policy.DefaultEpsilon.
	PolicyRounds int `json:"policy_rounds,omitempty"`
	// UniformPolicy disables the adaptive policy (the "uniform" arm of the
	// Fig. 7 ablation): the workers keep the uniform policy, and the run
	// builds no Network Monitor.
	UniformPolicy bool `json:"uniform_policy,omitempty"`
	// StalePeriods is the Network Monitor's liveness window: a worker
	// silent for this many monitor periods is evicted and policies
	// regenerate over the live subgraph (see monitor.Config.StalePeriods).
	StalePeriods int `json:"stale_periods,omitempty"`
}

// Resolved returns o with every unset setting replaced by its default:
// a TsSecs ≤ 0 by DefaultMonitorTs, a Beta outside (0, 1) by DefaultBeta,
// PolicyRounds zero by policy.DefaultRounds and a StalePeriods below 1 by
// monitor.DefaultStalePeriods. It is the one place both runtimes and the
// scenario manifests take these defaults from.
func (o Options) Resolved() Options {
	if o.TsSecs <= 0 {
		o.TsSecs = DefaultMonitorTs
	}
	if o.Beta <= 0 || o.Beta >= 1 {
		o.Beta = DefaultBeta
	}
	if o.PolicyRounds == 0 {
		o.PolicyRounds = policy.DefaultRounds
	}
	if o.StalePeriods < 1 {
		o.StalePeriods = monitor.DefaultStalePeriods
	}
	return o
}

// PolicySource is where a NetMax-family run takes its communication policy
// from: the Network Monitor (*monitor.Monitor), which regenerates (P, ρ)
// once a period from what the workers report (Algorithm 1), or a fixed
// policy that ignores every report and never regenerates. Both runtimes
// report each link time, heartbeat and membership change to it and hand
// every worker the policy MaybeRegenerate returns.
type PolicySource interface {
	ObserveAt(i, j int, iterSecs, now float64)
	Heartbeat(i int, now float64)
	SetLiveness(alive []bool, now float64)
	MaybeRegenerate(now float64) (*policy.Policy, bool)
	Regenerations() int
}

var _ PolicySource = (*monitor.Monitor)(nil)

// fixedPolicy is the PolicySource of a run on a fixed policy: the nodes
// keep the uniform policy they start on.
type fixedPolicy struct{}

func (fixedPolicy) ObserveAt(int, int, float64, float64)           {}
func (fixedPolicy) Heartbeat(int, float64)                         {}
func (fixedPolicy) SetLiveness([]bool, float64)                    {}
func (fixedPolicy) MaybeRegenerate(float64) (*policy.Policy, bool) { return nil, false }
func (fixedPolicy) Regenerations() int                             { return 0 }

// NewControl builds the control state of a NetMax-family run over the
// graph adj on the resolved opts: every worker's Node and their policy
// source, the Network Monitor or, under opts.UniformPolicy, a fixed source
// that keeps the uniform policy and builds no monitor. averaging selects
// AD-PSGD's blend for the nodes and the policies the monitor generates for
// them (see NewNodes). Both runtimes build their nodes and source here.
func NewControl(adj [][]bool, alpha float64, opts Options, averaging bool) ([]*Node, PolicySource) {
	opts = opts.Resolved()
	nodes := NewNodes(adj, alpha, opts.Beta, averaging)
	if opts.UniformPolicy {
		return nodes, fixedPolicy{}
	}
	return nodes, monitor.New(monitor.Config{
		Adj:            adj,
		Alpha:          alpha,
		Period:         opts.TsSecs,
		Rounds:         opts.PolicyRounds,
		AveragingBlend: averaging,
		StalePeriods:   opts.StalePeriods,
	})
}

// behavior implements engine.AsyncBehavior for NetMax: one Node per worker
// plus the source of their policy.
type behavior struct {
	src   PolicySource
	nodes []*Node
}

// newBehavior is NewControl's nodes and policy source driven by the engine.
func newBehavior(adj [][]bool, alpha float64, opts Options, averaging bool) *behavior {
	nodes, src := NewControl(adj, alpha, opts, averaging)
	return &behavior{src: src, nodes: nodes}
}

// NewADPSGD returns AD-PSGD's behavior over the graph adj [11]: averaging
// nodes on the fixed uniform policy. Departed peers are masked out, but hung
// peers and slow links keep their uniform share. It has no Network Monitor.
func NewADPSGD(adj [][]bool, alpha float64) engine.AsyncBehavior {
	return newBehavior(adj, alpha, Options{UniformPolicy: true}, true)
}

// Plan first runs the policy source's periodic regeneration and hands
// every worker a new policy. It then samples worker i's peer from its
// policy row (Algorithm 2 line 9; p[i][i] mass means "no pull this
// iteration") and weighs the pulled model as the node decides (lines
// 13-14, Node.Coef and Node.TwoSided).
func (b *behavior) Plan(i int, now float64, rng *rand.Rand) engine.Pull {
	if pol, ok := b.src.MaybeRegenerate(now); ok {
		for _, n := range b.nodes {
			n.Adopt(pol.P, pol.Rho)
		}
	}
	n := b.nodes[i]
	j := n.Select(rng)
	if j == i {
		return engine.Pull{Peer: i}
	}
	return engine.Pull{Peer: j, Coef: n.Coef(j), TwoSided: n.TwoSided(), Share: 1}
}

// OnMembership masks crashed peers out of every worker's selection at once
// and feeds the membership to the policy source. The Network Monitor then
// regenerates over the live subgraph at the next Plan (the row LPs
// re-solve on every membership change).
func (b *behavior) OnMembership(alive []bool, now float64) {
	for _, n := range b.nodes {
		for k, a := range alive {
			n.SetMasked(k, !a)
		}
	}
	b.src.SetLiveness(alive, now)
}

// OnIterationEnd folds the measured iteration time of worker i's iteration
// that started at now into its EMA time vector and reports it to the
// policy source. The report is stamped at the iteration's end, when the
// worker has it; a self-selected iteration pulls nothing and only
// heartbeats, so every iteration tells the monitor that its worker is
// alive.
func (b *behavior) OnIterationEnd(i, j int, iterSecs, now float64) {
	end := now + iterSecs
	if j == i {
		b.src.Heartbeat(i, end)
		return
	}
	b.src.ObserveAt(i, j, b.nodes[i].Observe(j, iterSecs), end)
}

// Run trains with NetMax under cfg and returns the aggregated result.
func Run(cfg *engine.Config, opts Options) *engine.Result {
	b := newBehavior(cfg.Net.Topo.Adj, cfg.LR, opts, false)
	r := engine.RunAsync(cfg, b, "NetMax")
	debugRegens.Store(int64(b.src.Regenerations()))
	return r
}

// RunADPSGDMonitor trains with the Section III-D extension: adaptive policy
// from the Network Monitor, but AD-PSGD's two-sided averaging with
// coefficient 1/2.
func RunADPSGDMonitor(cfg *engine.Config, opts Options) *engine.Result {
	return engine.RunAsync(cfg, newBehavior(cfg.Net.Topo.Adj, cfg.LR, opts, true), "AD-PSGD+Monitor")
}

// RunADPSGD trains with asynchronous decentralized parallel SGD [11]: each
// worker repeatedly averages its model with one uniformly random neighbor.
func RunADPSGD(cfg *engine.Config) *engine.Result {
	return engine.RunAsync(cfg, NewADPSGD(cfg.Net.Topo.Adj, cfg.LR), "AD-PSGD")
}

// debugRegens records the regeneration count of the most recent Run for
// diagnostics; atomic because the experiment driver runs algorithms
// concurrently. Not for production use.
var debugRegens atomic.Int64

// DebugRegens returns the Network Monitor regeneration count of the most
// recently finished Run.
func DebugRegens() int { return int(debugRegens.Load()) }
