package scenario

import "testing"

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
// entry says the kind reads it.
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
				{"netmax", a.netmax, func(m *Manifest) { m.NetMax = &NetMaxSpec{Beta: 0.3} }},
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
