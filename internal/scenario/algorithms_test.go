package scenario

import (
	"fmt"
	"testing"
	"time"

	"netmax/internal/core"
)

// churnDeadline bounds TestAlgorithmTable's churn run of one kind, which
// takes well under a second when it terminates.
const churnDeadline = 20 * time.Second

// algoLabels is the Result.Algo each algorithm kind's runner reports.
var algoLabels = map[string]string{
	"netmax":         "NetMax",
	"adpsgd":         "AD-PSGD",
	"adpsgd-monitor": "AD-PSGD+Monitor",
	"saps":           "SAPS-PSGD",
	"hop":            "Hop",
	"allreduce":      "Allreduce-SGD",
	"dpsgd":          "D-PSGD",
	"prague":         "Prague",
	"ps-sync":        "PS-syn",
	"ps-async":       "PS-asyn",
}

// TestAlgorithmTable walks every entry of the algorithm table: the kind's
// quick 4-worker manifest builds and runs under its own label, and each
// setting an entry claims to read or refuse validates exactly when the
// entry says the kind reads it. A kind that takes failures also runs
// through a crash, a rejoin, a leave and a hang far past the run's
// length, and must finish before a deadline rather than spin or stall.
func TestAlgorithmTable(t *testing.T) {
	if len(algorithms) != len(algoLabels) {
		t.Fatalf("the table has %d kinds, the test knows %d labels", len(algorithms), len(algoLabels))
	}
	for _, a := range algorithms {
		t.Run(a.kind, func(t *testing.T) {
			base := func() *Manifest {
				return &Manifest{
					Name: "t-" + a.kind, Algorithm: a.kind, Model: "MobileNet", Dataset: "MNIST",
					Workers: 4, Epochs: 1, Network: &NetworkSpec{Kind: "static"},
				}
			}
			rep, err := Run(base(), RunOptions{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if want := algoLabels[a.kind]; rep.Engine.Algo != want {
				t.Fatalf("Result.Algo = %q, want %q", rep.Engine.Algo, want)
			}
			if a.codecFailures {
				T := rep.Engine.TotalTime
				m := base()
				m.Failures = &FailureSpec{Events: []FailureEvent{
					{Kind: "hang", Worker: 2, At: 0.1 * T, Until: 1e9},
					{Kind: "crash", Worker: 1, At: 0.2 * T, Rejoin: 0.5 * T},
					{Kind: "leave", Worker: 3, At: 0.6 * T},
				}}
				done := make(chan error, 1)
				go func() {
					rep, err := Run(m, RunOptions{})
					if err == nil && rep.Engine.Epochs != m.Epochs {
						err = fmt.Errorf("%d epochs, want %d", rep.Engine.Epochs, m.Epochs)
					}
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("run through churn: %v", err)
					}
				case <-time.After(churnDeadline):
					t.Fatalf("run through churn still going after %v", churnDeadline)
				}
			}

			settings := []struct {
				name  string
				reads bool
				set   func(m *Manifest)
			}{
				{"codec", a.codecFailures, func(m *Manifest) { m.Codec = &CodecSpec{Name: "float32"} }},
				{"failures", a.codecFailures, func(m *Manifest) {
					m.Failures = &FailureSpec{Events: []FailureEvent{{Kind: "leave", Worker: 1, At: 1}}}
				}},
				{"parallelism 2", a.parallelism, func(m *Manifest) { m.Parallelism = 2 }},
				{"netmax", a.netmax, func(m *Manifest) { m.NetMax = &core.Options{Beta: 0.3} }},
				{"hop_staleness", a.hopStaleness, func(m *Manifest) { m.HopStaleness = 2 }},
				{"live runtime", a.live, func(m *Manifest) {
					m.Runtime, m.Epochs, m.Network = "live", 0, nil
					m.Live = &LiveSpec{Iterations: 1}
				}},
			}
			for _, s := range settings {
				m := base()
				s.set(m)
				if err := m.Validate(); (err == nil) != s.reads {
					t.Errorf("%s: Validate() = %v, but the entry says the kind reads it: %v", s.name, err, s.reads)
				}
			}
		})
	}
}
