// Command netmax-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	netmax-bench -list
//	netmax-bench -exp fig8
//	netmax-bench -exp tab2 -quick -seed 7
//	netmax-bench -all -quick
//	netmax-bench -exp fig12 -csv curves
//	netmax-bench -all -quick -par 1 -bench-out BENCH_baseline.json -bench-label baseline
//
// -par sizes the process's one host-parallelism budget (1 = the serial
// baseline, 0 = one per CPU): experiments, algorithm runs, seeds and a
// synchronous baseline's round gradients all draw their concurrency from
// it, so nested levels together never exceed it. Results are bitwise
// identical at any setting, only wall-clock changes.
// -bench-out records per-experiment wall-clock seconds as JSON so
// successive PRs can track the perf trajectory (see BENCH_baseline.json at
// the repo root). Scenario manifests and suites run through netmax-scenario
// run.
package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"netmax/internal/engine"
	"netmax/internal/experiments"
)

// benchRecord is the schema of -bench-out files.
type benchRecord struct {
	Label       string           `json:"label"`
	RecordedAt  string           `json:"recorded_at"`
	GoMaxProcs  int              `json:"go_max_procs"`
	Parallelism int              `json:"parallelism"` // 0 = NumCPU
	Quick       bool             `json:"quick"`
	Seed        int64            `json:"seed"`
	Experiments []benchExpRecord `json:"experiments"`
	TotalSecs   float64          `json:"total_seconds"`
}

type benchExpRecord struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id to regenerate (see -list)")
		list     = flag.Bool("list", false, "list available experiments")
		all      = flag.Bool("all", false, "run every experiment")
		quick    = flag.Bool("quick", false, "reduced epochs/node counts for a fast pass")
		seed     = flag.Int64("seed", 1, "random seed")
		csvDir   = flag.String("csv", "", "directory to write per-experiment curve CSVs into")
		par      = flag.Int("par", 0, "host parallelism: 0 = NumCPU, 1 = serial; results are identical either way")
		benchOut = flag.String("bench-out", "", "write per-experiment wall-clock seconds as JSON to this file")
		benchLab = flag.String("bench-label", "run", "label stored in the -bench-out record")
		benchCmp = flag.String("bench-compare", "", "baseline -bench-out JSON to compare the recorded timings against; exits 1 on regression")
		benchTol = flag.Float64("bench-threshold", 1.30, "regression factor for -bench-compare: fail when new/old exceeds this")
	)
	flag.Parse()

	if *par < 0 {
		fmt.Fprintln(os.Stderr, "error: -par must be >= 0 (0 = NumCPU, 1 = serial)")
		os.Exit(2)
	}
	engine.SetParallelism(*par)

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-10s %s\n", r.ID, r.Title)
		}
		return
	}
	opt := experiments.Options{Seed: *seed, Quick: *quick}
	record := &benchRecord{
		Label:       *benchLab,
		RecordedAt:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Parallelism: *par,
		Quick:       *quick,
		Seed:        *seed,
	}
	// runOne regenerates one experiment, reporting into w (buffered when
	// experiments run concurrently, so output stays in listing order).
	runOne := func(id string, w io.Writer) (float64, error) {
		start := time.Now()
		res, err := experiments.Run(id, opt)
		if err != nil {
			return 0, err
		}
		secs := time.Since(start).Seconds()
		res.WriteTable(w)
		if *csvDir != "" && len(res.Curves) > 0 {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return 0, err
			}
			path := filepath.Join(*csvDir, id+".csv")
			f, err := os.Create(path)
			if err != nil {
				return 0, err
			}
			if err := writeCurvesCSV(f, res.Curves); err != nil {
				f.Close()
				return 0, err
			}
			if err := f.Close(); err != nil {
				return 0, err
			}
			fmt.Fprintf(w, "curves written to %s\n", path)
		}
		fmt.Fprintf(w, "(%s regenerated in %.3fs)\n\n", id, secs)
		return secs, nil
	}
	switch {
	case *all:
		// Independent experiments run under the bounded-parallelism driver;
		// each one's output is buffered and printed in listing order. When
		// recording or comparing a perf baseline, experiments run one at a
		// time so the per-experiment seconds are contention-free and
		// comparable across machines and PRs (each experiment still
		// parallelizes internally per -par).
		limit := 0
		if *benchOut != "" || *benchCmp != "" {
			limit = 1
		}
		runners := experiments.All()
		outs := make([]bytes.Buffer, len(runners))
		secs := make([]float64, len(runners))
		errs := make([]error, len(runners))
		// Stream each experiment's buffered output as soon as it and all
		// its predecessors have finished, so -all reports progress live
		// while still printing in listing order.
		var mu sync.Mutex
		done := make([]bool, len(runners))
		printed := 0
		engine.Concurrently(len(runners), limit, func(k int) {
			secs[k], errs[k] = runOne(runners[k].ID, &outs[k])
			mu.Lock()
			done[k] = true
			for printed < len(runners) && done[printed] {
				if errs[printed] == nil {
					os.Stdout.Write(outs[printed].Bytes())
				} else {
					fmt.Fprintf(os.Stderr, "error: %s: %v\n", runners[printed].ID, errs[printed])
				}
				printed++
			}
			mu.Unlock()
		})
		for k, r := range runners {
			if errs[k] != nil {
				// Already reported in-stream above.
				os.Exit(1)
			}
			record.Experiments = append(record.Experiments, benchExpRecord{ID: r.ID, Seconds: secs[k]})
			record.TotalSecs += secs[k]
		}
	case *exp != "":
		s, err := runOne(*exp, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		record.Experiments = append(record.Experiments, benchExpRecord{ID: *exp, Seconds: s})
		record.TotalSecs += s
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *benchOut != "" {
		data, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("benchmark record written to %s (total %.3fs)\n", *benchOut, record.TotalSecs)
	}
	if *benchCmp != "" {
		if err := compareBench(record, *benchCmp, *benchTol, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench regression:", err)
			os.Exit(1)
		}
	}
}

// compareBench checks the freshly recorded per-experiment timings against a
// committed baseline record, reporting every experiment whose time grew by
// more than the threshold factor. Experiments present on only one side are
// reported informationally but never fail the comparison (the suite grows
// across PRs, and baselines age). Sub-10ms baselines are skipped: at that
// scale scheduler noise dwarfs any real regression.
func compareBench(rec *benchRecord, baselinePath string, threshold float64, w io.Writer) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base benchRecord
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	baseSecs := make(map[string]float64, len(base.Experiments))
	for _, e := range base.Experiments {
		baseSecs[e.ID] = e.Seconds
	}
	const minComparable = 0.010
	var regressed []string
	fmt.Fprintf(w, "\ncomparing against %s (label %q, recorded %s):\n", baselinePath, base.Label, base.RecordedAt)
	for _, e := range rec.Experiments {
		old, ok := baseSecs[e.ID]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-12s %8.3fs  (new experiment, no baseline)\n", e.ID, e.Seconds)
		case old < minComparable:
			fmt.Fprintf(w, "  %-12s %8.3fs  (baseline %.3fs too small to compare)\n", e.ID, e.Seconds, old)
		default:
			ratio := e.Seconds / old
			mark := ""
			if ratio > threshold {
				mark = "  <-- REGRESSED"
				regressed = append(regressed, fmt.Sprintf("%s %.3fs -> %.3fs (%.2fx > %.2fx)", e.ID, old, e.Seconds, ratio, threshold))
			}
			fmt.Fprintf(w, "  %-12s %8.3fs  vs %8.3fs  (%.2fx)%s\n", e.ID, e.Seconds, old, ratio, mark)
		}
		delete(baseSecs, e.ID)
	}
	for id := range baseSecs {
		fmt.Fprintf(w, "  %-12s (in baseline only; not run)\n", id)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d experiment(s) slower than %.2fx baseline: %s", len(regressed), threshold, strings.Join(regressed, "; "))
	}
	fmt.Fprintf(w, "no timing regressions beyond %.2fx\n", threshold)
	return nil
}

// writeCurvesCSV writes labeled curves as series,epoch,time,value rows,
// series sorted by label for deterministic output.
func writeCurvesCSV(w io.Writer, curves map[string][]engine.Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "epoch", "time_seconds", "value"}); err != nil {
		return err
	}
	for _, label := range slices.Sorted(maps.Keys(curves)) {
		for _, p := range curves[label] {
			rec := []string{
				label,
				strconv.FormatFloat(p.Epoch, 'g', -1, 64),
				strconv.FormatFloat(p.Time, 'g', -1, 64),
				strconv.FormatFloat(p.Value, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
