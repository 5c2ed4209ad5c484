package scenario

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"netmax/internal/engine"
	"netmax/internal/live"
)

// RunOptions tunes one scenario execution.
type RunOptions struct {
	// Quick applies the manifest's quick overrides before running.
	Quick bool
	// OutDir, when non-empty, is the directory the run writes its outputs
	// into: <OutDir>/<name>/resolved.json (the fully-defaulted manifest
	// that produced the numbers), result.json, and curve.csv when the
	// manifest's output block asks for curves. Empty skips all file output.
	OutDir string
}

// Report is the outcome of one scenario run. Exactly one of Engine and Live
// is non-nil, matching the manifest's runtime.
type Report struct {
	// Manifest is the resolved (and, under Quick, quick-applied) manifest
	// that actually ran — the reproducibility record.
	Manifest *Manifest
	// Engine holds the discrete-event result for engine-runtime scenarios.
	Engine *engine.Result
	// Live holds the process-group stats for live-runtime scenarios.
	Live *live.Stats
	// Dir is where outputs were written ("" when RunOptions.OutDir was
	// empty).
	Dir string
}

// ErrDiverged reports a run whose training diverged: its final loss is NaN
// or ±Inf. Run returns it, naming the run, before it writes any file.
var ErrDiverged = errors.New("training diverged")

// Run executes a manifest end to end: apply quick overrides, validate,
// build, run, and emit the resolved manifest next to the results so every
// reported number is reproducible from one file. A diverged run fails
// with ErrDiverged.
func Run(m *Manifest, opt RunOptions) (*Report, error) {
	if opt.Quick {
		m = m.ApplyQuick()
	}
	p, err := m.prepare()
	if err != nil {
		return nil, err
	}
	rep := &Report{Manifest: p.r}
	if p.r.Runtime == "live" {
		cfg, hub, closeHub, err := p.live()
		if err != nil {
			return nil, err
		}
		rep.Live = live.Run(context.Background(), cfg, hub)
		if err := closeHub(); err != nil {
			return nil, fmt.Errorf("scenario %q: closing hub: %w", p.r.Name, err)
		}
	} else {
		cfg, run := p.engine()
		rep.Engine = run(cfg)
	}
	if loss := rep.finalLoss(); math.IsNaN(loss) || math.IsInf(loss, 0) {
		return nil, fmt.Errorf("scenario %q: %w (final loss %v)", p.r.Name, ErrDiverged, loss)
	}
	if opt.OutDir != "" {
		dir, err := rep.write(opt.OutDir)
		if err != nil {
			return nil, err
		}
		rep.Dir = dir
	}
	return rep, nil
}

// finalLoss is the final loss of whichever runtime ran.
func (rep *Report) finalLoss() float64 {
	if rep.Live != nil {
		return rep.Live.FinalLoss
	}
	return rep.Engine.FinalLoss
}

// write emits resolved.json, result.json and (when requested) curve.csv
// under out/<name>/ and returns that directory.
func (rep *Report) write(out string) (string, error) {
	dir := filepath.Join(out, rep.Manifest.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("scenario: %w", err)
	}
	if err := writeJSON(filepath.Join(dir, "resolved.json"), rep.Manifest); err != nil {
		return "", err
	}
	var res any = rep.Live
	if rep.Engine != nil {
		res = rep.Engine
	}
	if err := writeJSON(filepath.Join(dir, "result.json"), res); err != nil {
		return "", err
	}
	if rep.Engine != nil && rep.Manifest.Output != nil && rep.Manifest.Output.Curves {
		cf, err := os.Create(filepath.Join(dir, "curve.csv"))
		if err != nil {
			return "", fmt.Errorf("scenario: %w", err)
		}
		err = writeCurveCSV(cf, rep.Engine.Curve)
		if cerr := cf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", fmt.Errorf("scenario: write curve: %w", err)
		}
	}
	return dir, nil
}

// writeJSON writes v to path as indented JSON with a closing newline: the
// one writer of a run's resolved.json and result.json and a suite's
// resolved-suite.json and suite.json. It encodes before it creates the
// file, so a value that cannot be encoded (a NaN) leaves no file behind.
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: write %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// writeCurveCSV writes one training curve as epoch,time,value rows.
func writeCurveCSV(w io.Writer, curve []engine.Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"epoch", "time_seconds", "value"}); err != nil {
		return err
	}
	for _, p := range curve {
		rec := []string{
			strconv.FormatFloat(p.Epoch, 'g', -1, 64),
			strconv.FormatFloat(p.Time, 'g', -1, 64),
			strconv.FormatFloat(p.Value, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Summary returns a one-line human-readable digest of the run.
func (rep *Report) Summary() string {
	m := rep.Manifest
	if rep.Live != nil {
		s := rep.Live
		total := 0
		for _, n := range s.IterationsPerWorker {
			total += n
		}
		return fmt.Sprintf("%s [live/%s %s x%d]: acc %.2f%%, loss %.4f, %d iterations, %d policies, %d pulls, %d peer-down pulls, %d bytes on wire, %.1fs",
			m.Name, m.Algorithm, m.Model, m.Workers,
			100*s.FinalAccuracy, s.FinalLoss, total, s.PolicyVersions, s.Pulls, s.PeerDownErrors, s.BytesOnWire, s.Elapsed.Seconds())
	}
	r := rep.Engine
	return fmt.Sprintf("%s [engine/%s %s x%d]: acc %.2f%%, loss %.4f, %.1f virtual secs, %d steps, %d bytes",
		m.Name, m.Algorithm, m.Model, m.Workers,
		100*r.FinalAccuracy, r.FinalLoss, r.TotalTime, r.GlobalSteps, r.BytesSent)
}
