// Command netmax-live runs NetMax as a real concurrent process group: live
// goroutine workers exchanging models (optionally over loopback TCP with
// the persistent binary wire protocol) under a wall-clock Network Monitor —
// the system-shaped counterpart to the discrete-event simulation used by
// netmax-bench. Model pulls go through a dense compression codec.
//
//	netmax-live -workers 4 -seconds 5
//	netmax-live -workers 4 -seconds 5 -tcp
//	netmax-live -tcp -codec float32
//	netmax-live -crash 2 -crash-at 1.5 -rejoin-at 3    # kill worker 2 mid-run
//
// The flags describe one live scenario manifest, which goes through
// scenario.BuildLive like a manifest file. Manifest files (runtime "live"; see
// internal/scenario) run through netmax-scenario run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"netmax/internal/codec"
	"netmax/internal/live"
	"netmax/internal/scenario"
)

func main() {
	var (
		workers   = flag.Int("workers", 4, "number of live workers")
		seconds   = flag.Float64("seconds", 5, "wall-clock training duration")
		tcp       = flag.Bool("tcp", false, "run the process group over loopback TCP (persistent binary wire protocol)")
		uniform   = flag.Bool("uniform", false, "disable the adaptive policy (AD-PSGD-style)")
		seed      = flag.Int64("seed", 1, "random seed")
		codecName = flag.String("codec", "raw", "model pull compression codec: "+strings.Join(codec.Names(), ", "))
		pullTO    = flag.Float64("pull-timeout", 2, "per-call pull deadline in seconds (0 disables)")
		crash     = flag.Int("crash", -1, "worker to crash mid-run (-1 disables)")
		crashAt   = flag.Float64("crash-at", 1, "crash time in seconds since start")
		rejoinAt  = flag.Float64("rejoin-at", 0, "rejoin time in seconds since start (<= crash-at means permanent)")
	)
	flag.Parse()

	// The flags describe a live manifest: the library's MobileNet/MNIST
	// group with a 400 ms monitor period, in-process with workers {0,1}
	// co-located (1 ms links) and everyone else cross-machine (6 ms), or
	// over loopback TCP.
	m := &scenario.Manifest{
		Name:    "netmax-live",
		Runtime: "live",
		Model:   "MobileNet",
		Dataset: "MNIST",
		Workers: *workers,
		Seed:    *seed,
		Batch:   16,
		LR:      0.1,
		Codec:   &scenario.CodecSpec{Name: *codecName},
		Live: &scenario.LiveSpec{
			TsMillis:        400,
			DurationSecs:    *seconds,
			PullTimeoutSecs: *pullTO,
			Uniform:         *uniform,
		},
	}
	if *pullTO == 0 {
		m.Live.PullTimeoutSecs = -1 // flag semantics: 0 disables deadlines
	}
	transportDesc := "in-process"
	if *tcp {
		m.Live.Transport = "tcp"
		transportDesc = "over loopback TCP"
	} else {
		m.Live.Latency = &scenario.LatencySpec{Colocated: min(2, *workers), IntraMillis: 1, InterMillis: 6}
	}
	if *crash >= 0 && *crash < *workers {
		m.Live.Churn = []scenario.LiveChurnEvent{{Worker: *crash, AtSecs: *crashAt, RejoinSecs: *rejoinAt}}
	}
	// Bad flag values are usage errors (exit 2); past validation, BuildLive
	// fails only to open a TCP hub.
	if err := m.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	cfg, hub, closeHub, err := m.BuildLive()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer closeHub()
	if len(m.Live.Churn) > 0 {
		if *rejoinAt > *crashAt {
			fmt.Printf("churn: worker %d crashes at %.1fs, rejoins at %.1fs\n", *crash, *crashAt, *rejoinAt)
		} else {
			fmt.Printf("churn: worker %d leaves permanently at %.1fs\n", *crash, *crashAt)
		}
	}
	fmt.Printf("Running %d live workers %s for %.1fs (codec: %s, adaptive policy: %v)...\n",
		*workers, transportDesc, *seconds, *codecName, !*uniform)
	stats := live.Run(context.Background(), cfg, hub)
	fmt.Printf("iterations per worker: %v\n", stats.IterationsPerWorker)
	fmt.Printf("policy broadcasts:     %d\n", stats.PolicyVersions)
	fmt.Printf("model pulls:           %d\n", stats.Pulls)
	fmt.Printf("peer-down pulls:       %d\n", stats.PeerDownErrors)
	fmt.Printf("bytes on wire:         %d (%s codec)\n", stats.BytesOnWire, *codecName)
	fmt.Printf("final loss:            %.4f\n", stats.FinalLoss)
	fmt.Printf("final accuracy:        %.2f%%\n", 100*stats.FinalAccuracy)
}
