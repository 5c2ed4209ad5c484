package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"netmax/internal/engine"
	"netmax/internal/live"
	"netmax/internal/trace"
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

// Run executes a manifest end to end: apply quick overrides, validate,
// build, run, and emit the resolved manifest next to the results so every
// reported number is reproducible from one file.
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
	if opt.OutDir != "" {
		dir, err := rep.write(opt.OutDir)
		if err != nil {
			return nil, err
		}
		rep.Dir = dir
	}
	return rep, nil
}

// write emits resolved.json, result.json and (when requested) curve.csv
// under out/<name>/ and returns that directory.
func (rep *Report) write(out string) (string, error) {
	dir := filepath.Join(out, rep.Manifest.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("scenario: %w", err)
	}
	raw, err := json.MarshalIndent(rep.Manifest, "", "  ")
	if err != nil {
		return "", fmt.Errorf("scenario: marshal resolved manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "resolved.json"), append(raw, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("scenario: %w", err)
	}
	// Encode in memory first: a result that cannot be encoded (a diverged
	// run's NaN loss) leaves no result.json behind.
	resPath := filepath.Join(dir, "result.json")
	var res bytes.Buffer
	if rep.Engine != nil {
		err = trace.WriteResultJSON(&res, rep.Engine)
	} else {
		enc := json.NewEncoder(&res)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep.Live)
	}
	if err == nil {
		err = os.WriteFile(resPath, res.Bytes(), 0o644)
	}
	if err != nil {
		return "", fmt.Errorf("scenario: write %s: %w", resPath, err)
	}
	if rep.Engine != nil && rep.Manifest.Output != nil && rep.Manifest.Output.Curves {
		cf, err := os.Create(filepath.Join(dir, "curve.csv"))
		if err != nil {
			return "", fmt.Errorf("scenario: %w", err)
		}
		err = trace.WriteCurveCSV(cf, rep.Engine.Curve)
		if cerr := cf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", fmt.Errorf("scenario: write curve: %w", err)
		}
	}
	return dir, nil
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
