// Compression-vs-accuracy scenario: the same NetMax group trained under
// each wire codec, comparing bytes-on-wire against final accuracy — the
// communication-efficiency experiment the NetMax setting motivates but the
// paper's testbed could not vary. The first table runs the live runtime
// (real goroutine workers over the in-process transport); the second runs
// the discrete-event engine on the heterogeneous cluster so the codecs'
// effect on *virtual* wall-clock (with MobileNet-scale transfers) is
// visible too.
//
// Both tables are driven by declarative scenario manifests
// (internal/scenario) — the same schema as the checked-in
// scenarios/compression-* and scenarios/live-* library files — with only
// the codec block varying between rows.
//
//	go run ./examples/compression
//	go run ./examples/compression -quick
package main

import (
	"flag"
	"fmt"
	"os"

	"netmax/internal/scenario"
)

func main() {
	quick := flag.Bool("quick", false, "tiny run for smoke tests")
	flag.Parse()
	workers, iters := 4, 150
	simWorkers, epochs := 8, 10
	if *quick {
		iters = 30
		simWorkers, epochs = 4, 2
	}
	codecs := []*scenario.CodecSpec{
		{Name: "raw"},
		{Name: "float32"},
	}
	run := func(m *scenario.Manifest) *scenario.Report {
		rep, err := scenario.Run(m, scenario.RunOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return rep
	}

	// --- live runtime: real goroutine workers, SynthMNIST on SimMobileNet ---
	fmt.Printf("live group: %d workers x %d iterations, MNIST, MobileNet stand-in\n\n", workers, iters)
	fmt.Printf("%-10s  %14s  %10s  %10s  %9s\n", "codec", "bytes on wire", "vs raw", "pulls", "accuracy")
	var rawBytes float64
	for _, c := range codecs {
		m := &scenario.Manifest{
			Name:    "compression-live-" + c.Name,
			Runtime: "live",
			Model:   "MobileNet",
			Dataset: "MNIST",
			Workers: workers,
			Codec:   c,
			Live:    &scenario.LiveSpec{Iterations: iters, TsMillis: 50},
		}
		stats := run(m).Live
		perPull := float64(stats.BytesOnWire) / float64(stats.Pulls)
		if c.Name == "raw" {
			rawBytes = perPull
		}
		fmt.Printf("%-10s  %14d  %9.1fx  %10d  %8.2f%%\n",
			c.Name, stats.BytesOnWire, rawBytes/perPull, stats.Pulls, 100*stats.FinalAccuracy)
	}

	// --- discrete-event engine: MobileNet-scale transfers on the paper's
	// heterogeneous cluster, so compression moves the virtual clock ---
	fmt.Printf("\nsimulated cluster: %d workers x %d epochs, MobileNet (~8 MB raw pulls), dynamic slow link\n\n",
		simWorkers, epochs)
	fmt.Printf("%-10s  %14s  %12s  %12s  %9s\n", "codec", "bytes on wire", "vs raw", "total time", "accuracy")
	var rawTotal float64
	for _, c := range codecs {
		m := &scenario.Manifest{
			Name:         "compression-sim-" + c.Name,
			Model:        "MobileNet",
			Dataset:      "MNIST",
			Workers:      simWorkers,
			Epochs:       epochs,
			LRDecayEpoch: epochs * 7 / 10,
			Codec:        c,
		}
		res := run(m).Engine
		if c.Name == "raw" {
			rawTotal = float64(res.BytesSent)
		}
		fmt.Printf("%-10s  %14d  %11.1fx  %11.1fs  %8.2f%%\n",
			c.Name, res.BytesSent, rawTotal/float64(res.BytesSent), res.TotalTime, 100*res.FinalAccuracy)
	}
}
