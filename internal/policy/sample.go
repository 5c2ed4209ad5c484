package policy

import (
	"fmt"
	"math/rand"
	"slices"
)

// Sample draws one index from the probability row (row[j] is the
// probability of selecting j; row[self] is the probability of selecting no
// peer). It is the single peer-selection primitive shared by every
// algorithm — NetMax, the uniform gossip baselines, Hop, and the live
// runtime — and consumes exactly one rng.Float64 per call.
//
// Rows are normalized, but floating-point summation can leave the
// cumulative total marginally below 1; the historical samplers fell
// through to `self` in that gap, silently converting a sliver of every
// row's mass into "skip communication" even when the policy assigned self
// zero probability. The fall-through now lands on the last
// positive-probability entry — the index the cumulative scan was
// converging to as r → 1 — so a zero-probability self (or any
// zero-probability non-neighbor) can never be returned. Self is returned
// only when it carries mass or the row is entirely empty.
func Sample(row []float64, self int, rng *rand.Rand) int {
	return SampleMasked(row, self, nil, rng)
}

// SampleMasked is Sample with a worker-local liveness mask: masked indices
// are treated as zero-probability and the remaining mass is renormalized,
// so a departed neighbor is skipped without rebuilding or regenerating the
// policy. Every asynchronous algorithm drops departed peers this way. When
// any entry is masked, r is first scaled by the unmasked mass; a nil or
// all-false mask leaves r as drawn, so it reproduces Sample's arithmetic
// exactly, draw for draw (scaling by the row's FP sum would draw
// differently whenever that sum is not exactly 1). Every failure-free run
// samples through an all-false mask, so the bitwise-determinism gates
// depend on this. Self is never masked.
func SampleMasked(row []float64, self int, masked []bool, rng *rand.Rand) int {
	r := rng.Float64()
	skip := func(j int) bool { return masked != nil && j != self && masked[j] }
	if slices.Contains(masked, true) {
		total := 0.0
		for j, pj := range row {
			if !skip(j) {
				total += pj
			}
		}
		if total <= 0 {
			return self
		}
		r *= total
	}
	acc := 0.0
	fallback := self
	for j, pj := range row {
		if skip(j) {
			continue
		}
		acc += pj
		if r < acc {
			return j
		}
		if pj > 0 {
			fallback = j
		}
	}
	return fallback
}

// SelfOnly reports whether a policy row assigns no mass to any peer: the
// row GenerateLive pins onto workers presumed dead. A worker that is in
// fact alive must not adopt such a row for itself — selecting only self
// means never pulling, never reporting, and therefore never being
// re-admitted by the monitor's liveness tracking. Callers detect the
// condition with SelfOnly and fall back to uniform selection until the
// monitor re-admits them.
func SelfOnly(row []float64, self int) bool {
	for j, v := range row {
		if j != self && v > 0 {
			return false
		}
	}
	return true
}

// GenerateLive runs Algorithm 3 restricted to the live subgraph, the
// workers alive marks; alive must hold one entry per worker, or
// GenerateLive returns ErrInvalidInput. The policy keeps the full index
// space, with dead rows pinned to self (a dead worker that somehow acts
// selects nobody) and dead columns zeroed (no live worker routes a pull at
// a corpse); an all-true alive is exactly Generate. A live subgraph with
// fewer than two workers, or one that is not connected, has no policy and
// returns ErrNoFeasiblePolicy.
func GenerateLive(in Input, alive []bool) (*Policy, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	if m := len(in.Times); len(alive) != m {
		return nil, fmt.Errorf("%w: %d liveness entries for %d workers", ErrInvalidInput, len(alive), m)
	}
	s := runSearch(in, alive)
	return s.result()
}
