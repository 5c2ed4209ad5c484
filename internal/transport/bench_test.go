package transport

import (
	"testing"

	"netmax/internal/codec"
	"netmax/internal/data"
	"netmax/internal/nn"
)

// The transport round-trip benchmarks: one pull and one monitor collect
// over each carrier, on a served two-worker hub.
//
//	go test -run '^$' -bench RoundTrip -benchmem ./internal/transport/

// benchHubs are the two carriers a hub runs on.
var benchHubs = []struct {
	name string
	open func() (*Hub, error)
}{
	{"pipe", func() (*Hub, error) { return NewLocalHub(nil), nil }},
	{"tcp", NewTCPHub},
}

// BenchmarkPullRoundTrip pulls a float32-coded model at the live
// benchmark's size (MobileNet's stand-in on MNIST) from worker 1 to
// worker 0.
func BenchmarkPullRoundTrip(b *testing.B) {
	dim := nn.SimMobileNet.Build(1, data.SynthMNIST.Dim, data.SynthMNIST.Classes).VectorLen()
	vec := make([]float64, dim)
	for i := range vec {
		vec[i] = float64(i) / float64(dim)
	}
	for _, c := range benchHubs {
		b.Run(c.name, func(b *testing.B) {
			hub := openBenchHub(b, c.open, Group{Sources: fixed(vec, vec), Codec: codec.Float32{}})
			dst := make([]float64, dim)
			peer := hub.Peer(0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := peer.PullModel(dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectRoundTrip collects worker 1's link times, as the
// monitor does once per period.
func BenchmarkCollectRoundTrip(b *testing.B) {
	row := []LinkTime{{Secs: 0.25, Count: 9}, {}}
	for _, c := range benchHubs {
		b.Run(c.name, func(b *testing.B) {
			hub := openBenchHub(b, c.open, Group{Sources: fixed(nil, nil), Times: []TimeSource{nil, fixedTimes(row, 1)}})
			ctl := hub.Control(1)
			dst := make([]LinkTime, len(row))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ctl.Collect(dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// openBenchHub opens a hub, serves g on it, and closes it when b ends.
func openBenchHub(b *testing.B, open func() (*Hub, error), g Group) *Hub {
	b.Helper()
	hub, err := open()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { hub.Close() })
	if err := hub.Serve(g); err != nil {
		b.Fatal(err)
	}
	return hub
}
