package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// work is what one operation did, read from the operation's own outputs.
type work struct {
	gradSteps  int   // local SGD steps across all workers
	regens     int   // communication policies generated
	evalPoints int   // loss evaluations of the averaged model
	tcpPulls   int64 // model pulls over real sockets
	wireBytes  int64 // model bytes on the simulated or real wire
}

// bench is one workload: setup builds the inputs every operation reuses, and
// run performs one operation, checks its output and reports its work.
type bench interface {
	setup() error
	run() (work, error)
}

// Set-up repeats until it has run minSetups times and for at least
// setupWindow, so cheap set-ups still yield a steady median.
const (
	minSetups   = 5
	maxSetups   = 1000
	setupWindow = time.Second
)

// measure sets the workload up several times, runs one untimed warm-up
// operation, then runs operations back to back for window. Traced and
// untraced runs do the same operations; with trace the operations run under
// the CPU profiler and the report holds per-layer metrics instead of
// end-to-end ones.
func measure(b bench, window time.Duration, trace bool) (*report, error) {
	var setups []float64
	start := time.Now()
	for len(setups) < minSetups || (time.Since(start) < setupWindow && len(setups) < maxSetups) {
		// Each set-up starts from a collected heap, so it does not pay for
		// the garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	rep := &report{Metrics: map[string]metric{}}
	fail := func(err error) {
		rep.Failed++
		if rep.Failed <= 3 {
			logf("operation %d failed: %v", rep.Attempted, err)
		}
	}
	rep.Attempted++
	if _, err := b.run(); err != nil {
		fail(err)
	}

	var prof bytes.Buffer
	if trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var opMs, cpuMs, allocs []float64
	var works []work
	var ms runtime.MemStats
	ops := 0
	deadline := time.Now().Add(window)
	for len(opMs) == 0 || time.Now().Before(deadline) {
		var before uint64
		if trace {
			runtime.ReadMemStats(&ms)
			before = ms.Mallocs
		}
		cpu0 := cpuTime()
		t0 := time.Now()
		w, err := b.run()
		d := time.Since(t0)
		cpu := cpuTime() - cpu0
		rep.Attempted++
		ops++
		if err != nil {
			fail(err)
			if rep.Failed > rep.Attempted/2 {
				if trace {
					pprof.StopCPUProfile()
				}
				return nil, fmt.Errorf("%d of %d operations failed", rep.Failed, rep.Attempted)
			}
			continue
		}
		opMs = append(opMs, float64(d)/float64(time.Millisecond))
		cpuMs = append(cpuMs, float64(cpu)/float64(time.Millisecond))
		works = append(works, w)
		if trace {
			runtime.ReadMemStats(&ms)
			allocs = append(allocs, float64(ms.Mallocs-before))
		}
	}
	rep.Correct = rep.Failed == 0

	if !trace {
		rep.Metrics["run_ms"] = metric{median(opMs), "ms"}
		rep.Metrics["run_cpu_ms"] = metric{median(cpuMs), "ms"}
		rep.Metrics["setup_s"] = metric{median(setups), "s"}
		return rep, nil
	}
	pprof.StopCPUProfile()
	ns, err := layerTimes(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("reading the CPU profile: %w", err)
	}
	for _, name := range layerMetrics {
		rep.Metrics[name] = metric{ns[name] / float64(ops) / 1e6, "ms"}
	}
	rep.Metrics["traced_run_ms"] = metric{median(opMs), "ms"}
	rep.Metrics["run_allocs"] = metric{median(allocs), "count"}
	count := func(name, unit string, f func(work) float64) {
		xs := make([]float64, len(works))
		for i, w := range works {
			xs[i] = f(w)
		}
		rep.Metrics[name] = metric{median(xs), unit}
	}
	count("grad_steps", "count", func(w work) float64 { return float64(w.gradSteps) })
	count("policy_regens", "count", func(w work) float64 { return float64(w.regens) })
	count("eval_points", "count", func(w work) float64 { return float64(w.evalPoints) })
	count("tcp_pulls", "count", func(w work) float64 { return float64(w.tcpPulls) })
	count("wire_bytes", "bytes", func(w work) float64 { return float64(w.wireBytes) })
	return rep, nil
}

// cpuTime returns the CPU time the process has used, in user and kernel
// mode, across all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
