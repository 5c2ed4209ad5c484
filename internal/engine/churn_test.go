package engine

import (
	"math/rand"
	"testing"

	"netmax/internal/simnet"
)

// membershipRecorder is simpleBehavior plus membership handling: it masks
// dead peers out of its uniform selection, recording every event.
type membershipRecorder struct {
	m      int
	dead   []bool
	events int
}

func (s *membershipRecorder) Plan(i int, now float64, rng *rand.Rand) Pull {
	j := rng.Intn(s.m - 1)
	if j >= i {
		j++
	}
	if s.dead != nil && s.dead[j] {
		return Pull{Peer: i} // skip communication rather than pull at a corpse
	}
	return Pull{Peer: j, Coef: 0.5, Share: 1}
}
func (s *membershipRecorder) OnIterationEnd(i, j int, t, now float64) {}
func (s *membershipRecorder) OnMembership(alive []bool, now float64) {
	if s.dead == nil {
		s.dead = make([]bool, s.m)
	}
	for i, a := range alive {
		s.dead[i] = !a
	}
	s.events++
}

// TestFailureFreeScheduleBitwiseIdentical extends the determinism gate to
// churn configs: attaching an empty FailureSchedule, or one whose events
// all lie beyond the simulated horizon, must reproduce the no-schedule
// trajectory bitwise.
func TestFailureFreeScheduleBitwiseIdentical(t *testing.T) {
	run := func(fs *simnet.FailureSchedule) *Result {
		cfg := testConfig(4, 3)
		cfg.Net = simnet.NewStatic(simnet.PaperCluster(4))
		cfg.Failures = fs
		return RunAsync(cfg, &simpleBehavior{m: 4}, "gate")
	}
	ref := run(nil)
	for _, tc := range []struct {
		name string
		fs   *simnet.FailureSchedule
	}{
		{"empty schedule", simnet.NewFailureSchedule()},
		{"events beyond horizon", simnet.NewFailureSchedule().Crash(0, 1e15, 1e15+10).Blackout(1, 2, 1e15, 1e15+5)},
	} {
		resultsIdentical(t, tc.name, ref, run(tc.fs))
	}
}

// TestChurnCrashRejoinStillConverges is the churn acceptance test: with one
// worker crashing and rejoining mid-run, training must complete every
// epoch, deliver membership events, and keep the loss decreasing in trend.
func TestChurnCrashRejoinStillConverges(t *testing.T) {
	cfg := testConfig(4, 6)
	cfg.Net = simnet.NewStatic(simnet.PaperCluster(4))
	// Find the failure window from a dry run's timescale: iterations are
	// sub-second here, so a crash covering a mid-run stretch of the
	// virtual clock exercises down, rejoin and recovery.
	dry := RunAsync(cfg, &simpleBehavior{m: 4}, "dry")
	crashAt := dry.TotalTime * 0.3
	rejoinAt := dry.TotalTime * 0.6
	fs := simnet.NewFailureSchedule().Crash(2, crashAt, rejoinAt)

	cfg2 := testConfig(4, 6)
	cfg2.Net = simnet.NewStatic(simnet.PaperCluster(4))
	cfg2.Failures = fs
	b := &membershipRecorder{m: 4}
	r := RunAsync(cfg2, b, "churn")

	if r.Epochs != 6 {
		t.Fatalf("churn run completed %d epochs, want 6", r.Epochs)
	}
	if b.events < 2 {
		t.Fatalf("membership events = %d, want >= 2 (crash + rejoin)", b.events)
	}
	if b.dead[2] {
		t.Fatal("worker 2 still masked after rejoin")
	}
	// Loss decreasing in trend: the average of the last two curve points
	// must sit below the average of the first two, and the final loss must
	// be finite.
	n := len(r.Curve)
	if n < 4 {
		t.Fatalf("curve too short: %d points", n)
	}
	early := (r.Curve[0].Value + r.Curve[1].Value) / 2
	late := (r.Curve[n-2].Value + r.Curve[n-1].Value) / 2
	if !(late < early) {
		t.Fatalf("loss trend not decreasing through churn: early %v, late %v", early, late)
	}
	// The crashed worker contributed fewer steps than in the clean run.
	if r.GlobalSteps >= dry.GlobalSteps+10 {
		t.Logf("note: churn run took %d steps vs %d clean", r.GlobalSteps, dry.GlobalSteps)
	}
}

// TestChurnHangChargesDetectionDeadline verifies the undetectable-failure
// path: a hung worker stays in the membership, pulls at it fail after the
// detection deadline, and the puller's clock advances by that deadline.
func TestChurnHangChargesDetectionDeadline(t *testing.T) {
	cfg := testConfig(2, 1)
	cfg.Net = simnet.NewStatic(simnet.PaperCluster(2))
	fs := simnet.NewFailureSchedule().Hang(1, 0, 1e9)
	fs.DetectSecs = 50 // much longer than any real iteration here
	cfg.Failures = fs
	b := &membershipRecorder{m: 2}
	r := RunAsync(cfg, b, "hang")
	if b.events != 0 {
		t.Fatalf("hang emitted %d membership events, want 0", b.events)
	}
	// Worker 0's every pull targets the hung worker 1 and pays the
	// detection deadline, so the run's virtual clock is dominated by it.
	if r.TotalTime < fs.DetectSecs {
		t.Fatalf("TotalTime %v, want >= detection deadline %v", r.TotalTime, fs.DetectSecs)
	}
	if r.BytesSent != 0 {
		t.Fatalf("failed pulls moved %d bytes", r.BytesSent)
	}
}

// TestChurnLeaveDrainsWorker verifies permanent departure: the leaver stops
// contributing steps and the rest finish the run.
func TestChurnLeaveDrainsWorker(t *testing.T) {
	cfg := testConfig(3, 3)
	cfg.Net = simnet.NewStatic(simnet.PaperCluster(3))
	cfg.Failures = simnet.NewFailureSchedule().Leave(2, 0.0001)
	b := &membershipRecorder{m: 3}
	r := RunAsync(cfg, b, "leave")
	if r.Epochs != 3 {
		t.Fatalf("epochs = %d, want 3 (survivors must finish)", r.Epochs)
	}
	if !b.dead[2] {
		t.Fatal("leave not reflected in membership")
	}
}

// TestChurnBlackoutOnlyBlocksLink verifies that a blackout fails pulls over
// one link while both endpoints keep stepping.
func TestChurnBlackoutOnlyBlocksLink(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Net = simnet.NewStatic(simnet.PaperCluster(2))
	fs := simnet.NewFailureSchedule().Blackout(0, 1, 0, 1e9)
	fs.DetectSecs = 0.5
	cfg.Failures = fs
	b := &membershipRecorder{m: 2}
	r := RunAsync(cfg, b, "blackout")
	if b.events != 0 {
		t.Fatalf("blackout emitted %d membership events, want 0", b.events)
	}
	if r.Epochs != 2 {
		t.Fatalf("epochs = %d, want 2 (local training must continue)", r.Epochs)
	}
	if r.BytesSent != 0 {
		t.Fatalf("blacked-out link moved %d bytes", r.BytesSent)
	}
}
