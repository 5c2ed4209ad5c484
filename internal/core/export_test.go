package core

import "netmax/internal/engine"

// RunNodes runs NetMax like Run and also returns the workers' nodes, so
// external tests can read the policy each worker ended on.
func RunNodes(cfg *engine.Config, opts Options) (*engine.Result, []*Node) {
	b := newBehavior(cfg.Net.Topo.Adj, cfg.LR, opts, false)
	return engine.RunAsync(cfg, b, "NetMax"), b.nodes
}
