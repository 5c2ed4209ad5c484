package engine

import (
	"testing"

	"netmax/internal/codec"
)

// runWithCodec executes the uniform async loop under the given codec.
func runWithCodec(t *testing.T, c codec.Codec) *Result {
	t.Helper()
	cfg := testConfig(4, 3)
	cfg.Codec = c
	return RunAsync(cfg, &simpleBehavior{m: 4}, "codec")
}

// TestCodecAwareSimulationBytes checks that the simnet bandwidth model is
// charged the codec's encoded size: float32 halves raw traffic while the
// trained model stays within tolerance.
func TestCodecAwareSimulationBytes(t *testing.T) {
	raw := runWithCodec(t, codec.Raw{})
	f32 := runWithCodec(t, codec.Float32{})

	if raw.BytesSent == 0 {
		t.Fatal("raw run recorded no traffic")
	}
	// Per-pull normalization: epoch-bounded runs may end on slightly
	// different iteration counts because transfer times differ.
	perStep := func(r *Result) float64 { return float64(r.BytesSent) / float64(r.GlobalSteps) }
	if ratio := perStep(raw) / perStep(f32); ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("float32 traffic ratio = %.3f, want ~2", ratio)
	}
	// Cheaper transfers must not slow the virtual clock down.
	if f32.TotalTime > raw.TotalTime*1.01 {
		t.Fatalf("float32 virtual time %v exceeds raw %v", f32.TotalTime, raw.TotalTime)
	}
	const tol = 0.05
	if f32.FinalAccuracy < raw.FinalAccuracy-tol {
		t.Fatalf("float32 accuracy %.3f fell below raw %.3f - %.2f", f32.FinalAccuracy, raw.FinalAccuracy, tol)
	}
}

// TestCodecSimulationDeterministic pins that compression-aware runs stay
// reproducible: the codecs are deterministic, so two identical runs must
// agree bitwise.
func TestCodecSimulationDeterministic(t *testing.T) {
	a := runWithCodec(t, codec.Float32{})
	b := runWithCodec(t, codec.Float32{})
	if a.FinalLoss != b.FinalLoss || a.BytesSent != b.BytesSent || a.TotalTime != b.TotalTime {
		t.Fatalf("codec runs diverged: %+v vs %+v", a, b)
	}
}

// TestNilCodecMatchesSeedBehavior guards the seed trajectory: without a
// codec the engine must charge Spec.ModelBytes exactly as before.
func TestNilCodecMatchesSeedBehavior(t *testing.T) {
	cfg := testConfig(4, 1)
	if got, want := cfg.WireBytes(), cfg.Spec.ModelBytes(); got != want {
		t.Fatalf("nil codec WireBytes = %d, want ModelBytes %d", got, want)
	}
	cfg.Codec = codec.Float32{}
	if got, want := cfg.WireBytes(), cfg.Spec.ModelBytes(); got != want {
		t.Fatalf("float32 WireBytes = %d, want %d (float32 matches the 4-byte paper convention)", got, want)
	}
}
