package policy

import (
	"math/rand"
	"slices"
)

// Sample draws one index from the probability row (row[j] is the
// probability of selecting j; row[self] is the probability of selecting no
// peer), skipping the indices masked marks. It is the single
// peer-selection primitive shared by every algorithm — NetMax, the uniform
// gossip baselines, Hop, and the live runtime — and consumes exactly one
// rng.Float64 per call.
//
// Masked indices are treated as zero-probability and the remaining mass is
// renormalized, so a departed neighbor is skipped without rebuilding or
// regenerating the policy. When any entry is masked, r is first scaled by
// the unmasked mass; a nil or all-false mask leaves r as drawn (scaling by
// the row's FP sum would draw differently whenever that sum is not exactly
// 1). Every failure-free run samples through an all-false mask, so the
// bitwise-determinism gates depend on this. Self is never masked.
//
// Floating-point summation can leave the cumulative total marginally
// below 1. A draw in that gap lands on the last positive-probability
// entry, so a zero-probability self (or any zero-probability
// non-neighbor) is never returned: self is returned only when it carries
// mass or no unmasked entry does.
func Sample(row []float64, self int, masked []bool, rng *rand.Rand) int {
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
// row Generate pins onto the workers Input.Alive presumes dead. A worker
// that is in fact alive must not adopt such a row for itself — selecting
// only self means never pulling, never reporting, and therefore never being
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
