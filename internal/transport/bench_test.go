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
// worker 0. Its overlapped sub-benchmarks split the pull as a live worker
// does: Request, one 16-row gradient step of that model, then Receive.
func BenchmarkPullRoundTrip(b *testing.B) {
	dim := nn.SimMobileNet.Build(1, data.SynthMNIST.Dim, data.SynthMNIST.Classes).VectorLen()
	vec := make([]float64, dim)
	for i := range vec {
		vec[i] = float64(i) / float64(dim)
	}
	for _, c := range benchHubs {
		for _, overlapped := range []bool{false, true} {
			name := c.name
			if overlapped {
				name += "/overlapped"
			}
			b.Run(name, func(b *testing.B) {
				hub := openBenchHub(b, c.open, Group{Sources: fixed(vec, vec), Codec: codec.Float32{}})
				dst := make([]float64, dim)
				peer := hub.Peer(0, 1)
				step := func() {}
				if overlapped {
					step = newGradStep()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					peer.Request()
					step()
					if _, err := peer.Receive(dst); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
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

// newGradStep returns one SGD step of a MobileNet stand-in on a 16-row
// MNIST batch, the work a live worker does between a pull's Request and
// its Receive.
func newGradStep() func() {
	model := nn.SimMobileNet.Build(1, data.SynthMNIST.Dim, data.SynthMNIST.Classes)
	train, _ := data.SynthMNIST.Generate(1)
	x, labels := train.Batch(0, 16)
	opt := nn.NewSGD(0.1)
	return func() {
		model.Loss(x, labels).Backward()
		opt.Step(model)
	}
}
