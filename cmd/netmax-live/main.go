// Command netmax-live runs NetMax as a real concurrent process group: live
// goroutine workers exchanging models (optionally over loopback TCP with
// the persistent binary wire protocol) under a wall-clock Network Monitor —
// the system-shaped counterpart to the discrete-event simulation used by
// netmax-bench. Model pulls go through a pluggable compression codec.
//
//	netmax-live -workers 4 -seconds 5
//	netmax-live -workers 4 -seconds 5 -tcp
//	netmax-live -tcp -codec float32
//	netmax-live -tcp -codec topk -topk 0.1
//	netmax-live -crash 2 -crash-at 1.5 -rejoin-at 3    # kill worker 2 mid-run
//	netmax-live -scenario scenarios/live-local-heterogeneous.json
//
// -scenario replaces the flag soup with a declarative manifest (runtime
// "live"; see internal/scenario): the run is configured entirely from the
// file and its resolved form is written next to the results.
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

// runScenario executes a live-runtime manifest and prints the same stats
// block as the flag path.
func runScenario(path string, quick bool, out string) {
	if raw, err := os.ReadFile(path); err == nil && scenario.IsSuite(raw) {
		fmt.Fprintln(os.Stderr, "error: netmax-live runs single-run manifests; use netmax-scenario run for suite files")
		os.Exit(2)
	}
	m, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	// Banner from the configuration that will actually run: quick
	// overrides applied first, defaults made explicit once.
	banner := m
	if quick {
		banner = m.ApplyQuick()
	}
	r := banner.Resolved()
	if r.Runtime != "live" {
		fmt.Fprintln(os.Stderr, "error: netmax-live runs live-runtime scenarios; use netmax-bench -scenario (or netmax-scenario run) for engine manifests")
		os.Exit(2)
	}
	fmt.Printf("Running scenario %q: %d live workers over %s (codec: %s, adaptive policy: %v)...\n",
		r.Name, r.Workers, r.Live.Transport, codecName(r), !r.Live.Uniform)
	rep, err := scenario.Run(m, scenario.RunOptions{Quick: quick, OutDir: out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	printStats(rep.Live, codecName(r))
	if rep.Dir != "" {
		fmt.Printf("outputs written to %s\n", rep.Dir)
	}
}

func codecName(r *scenario.Manifest) string {
	if r.Codec == nil {
		return "raw"
	}
	return r.Codec.Name
}

// printStats renders a live run's stats block; both the flag path and the
// scenario path go through it so the two output formats cannot diverge.
func printStats(stats *live.Stats, codec string) {
	fmt.Printf("iterations per worker: %v\n", stats.IterationsPerWorker)
	fmt.Printf("policy broadcasts:     %d\n", stats.PolicyVersions)
	fmt.Printf("model pulls:           %d\n", stats.Pulls)
	fmt.Printf("peer-down pulls:       %d\n", stats.PeerDownErrors)
	fmt.Printf("bytes on wire:         %d (%s codec)\n", stats.BytesOnWire, codec)
	fmt.Printf("final loss:            %.4f\n", stats.FinalLoss)
	fmt.Printf("final accuracy:        %.2f%%\n", 100*stats.FinalAccuracy)
}

func main() {
	var (
		workers   = flag.Int("workers", 4, "number of live workers")
		seconds   = flag.Float64("seconds", 5, "wall-clock training duration")
		tcp       = flag.Bool("tcp", false, "run the process group over loopback TCP (persistent binary wire protocol)")
		uniform   = flag.Bool("uniform", false, "disable the adaptive policy (AD-PSGD-style)")
		seed      = flag.Int64("seed", 1, "random seed")
		codecName = flag.String("codec", "raw", "model pull compression codec: "+strings.Join(codec.Names(), ", "))
		topkFrac  = flag.Float64("topk", codec.DefaultTopKFrac, "fraction of coordinates the topk codec keeps per pull")
		pullTO    = flag.Float64("pull-timeout", 2, "per-call pull deadline in seconds (0 disables)")
		crash     = flag.Int("crash", -1, "worker to crash mid-run (-1 disables)")
		crashAt   = flag.Float64("crash-at", 1, "crash time in seconds since start")
		rejoinAt  = flag.Float64("rejoin-at", 0, "rejoin time in seconds since start (<= crash-at means permanent)")
		scen      = flag.String("scenario", "", "live-runtime scenario manifest to run instead of flags")
		scenQuick = flag.Bool("quick", false, "with -scenario: apply the manifest's quick overrides")
		scenOut   = flag.String("out", "runs", "with -scenario: output directory (resolved manifest + results); empty disables file output")
	)
	flag.Parse()

	if *scen != "" {
		runScenario(*scen, *scenQuick, *scenOut)
		return
	}

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
	if *codecName == "topk" {
		m.Codec.TopKFrac = min(max(*topkFrac, 0), 1) // codec.NewTopK's clamp
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
	printStats(stats, *codecName)
}
