// Command perfbench is the repository benchmark. It builds NetMax runs from
// seeded inputs, times them, checks their outputs, and prints one JSON
// object as the last line of its standard output. Run it from the
// repository root through its launcher, which builds it from source:
//
//	python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0
//
// The three workloads split the hot path (see workloads.go): paper is
// dominated by gradient compute, control16 by policy generation, and
// live-float32 by codec and TCP transport work.
//
// With --trace 0 the report holds the end-to-end metrics: run_ms and
// run_cpu_ms, the median wall and process CPU time of one operation (a
// training run, or one run's worth of policy regenerations for control16),
// and setup_s, the median time to build the inputs the operations reuse.
// With --trace 1 the same operations run under the CPU profiler and the
// report holds the per-layer metrics: the CPU time per operation spent in
// each layer (see profile.go), the operation's wall time under the
// profiler, its allocations, and its work read from its own outputs (grad
// steps, policy regenerations, eval points, TCP pulls, wire bytes), so a
// layer's time can be divided by the work that drives it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: paper, control16 or live-float32")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1, got %d", *seconds)
	}
	b, err := mk(*seed)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	rep, err := measure(b, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatalf("encoding report: %v", err)
	}
	fmt.Println(string(line))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}
