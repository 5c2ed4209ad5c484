package core

import (
	"netmax/internal/engine"
	"netmax/internal/monitor"
)

// RunNodes runs NetMax like Run and also returns the workers' nodes, so
// external tests can read the policy each worker ended on.
func RunNodes(cfg *engine.Config, opts Options) (*engine.Result, []*Node) {
	b := newBehavior(cfg.Net.Topo.Adj, cfg.LR, opts, false)
	return engine.RunAsync(cfg, b, "NetMax"), b.nodes
}

// RunSource runs NetMax's nodes under cfg with their policy taken from
// src, and returns the nodes so a test can read the policy each ended on.
func RunSource(cfg *engine.Config, src PolicySource) (*engine.Result, []*Node) {
	nodes := NewNodes(cfg.Net.Topo.Adj, cfg.LR, DefaultBeta, false)
	return engine.RunAsync(cfg, &behavior{src: src, nodes: nodes}, "NetMax"), nodes
}

// mon returns the Network Monitor b takes its policy from. It panics when
// b runs on a fixed policy.
func (b *behavior) mon() *monitor.Monitor { return b.src.(*monitor.Monitor) }
