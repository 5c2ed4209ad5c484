package scenario

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"netmax/internal/engine"
	"netmax/internal/stats"
)

// SuiteReport is the outcome of one suite run.
type SuiteReport struct {
	// Suite is the explicit run list that actually ran: each member as Run
	// resolved it, quick overrides applied under RunOptions.Quick.
	Suite *Suite
	// Reports holds the member reports, in run-list order.
	Reports []*Report
	// Table is the joint per-arm summary.
	Table *SuiteTable
	// Dir is where suite outputs were written ("" when RunOptions.OutDir
	// was empty).
	Dir string
}

// SuiteTable is the joint comparison table of a suite run: one row per arm,
// each metric summarized as mean +/- sample stddev over the arm's runs.
// This is the schema of suite.json.
type SuiteTable struct {
	Suite string `json:"suite"`
	// TargetLoss echoes output.target_loss when set; the TimeToLoss
	// columns exist only then.
	TargetLoss float64      `json:"target_loss,omitempty"`
	Arms       []ArmSummary `json:"arms"`
}

// ArmSummary aggregates the runs of one arm.
type ArmSummary struct {
	Arm string `json:"arm"`
	// N is the number of runs in the arm.
	N int `json:"n"`
	// Runs lists the member run names, in run-list order.
	Runs []string `json:"runs"`
	// TimeToLoss summarizes, over the runs that reached the target loss,
	// the virtual time of first reaching it (engine members with a target
	// configured; nil otherwise).
	TimeToLoss *Dist `json:"time_to_loss,omitempty"`
	// Reached counts runs whose loss curve reached the target (only
	// meaningful when a target is configured).
	Reached int `json:"reached,omitempty"`
	// TotalTime summarizes run duration: virtual seconds for engine
	// members, wall-clock seconds for live ones.
	TotalTime Dist `json:"total_time"`
	// FinalLoss summarizes the final loss.
	FinalLoss Dist `json:"final_loss"`
	// BytesOnWire summarizes the traffic the run put on the (virtual or
	// real) network.
	BytesOnWire Dist `json:"bytes_on_wire"`
}

// Dist is a mean +/- sample standard deviation pair.
type Dist struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

func distOf(xs []float64) Dist {
	s := stats.Summarize(xs)
	return Dist{Mean: s.Mean, Std: s.Std}
}

// RunSuite executes a suite end to end: resolve to the explicit run list,
// checking every member at both scales before any runs, run every member
// under the bounded-parallel driver with opt's scale, build the joint
// table, and (when opt.OutDir is set) emit resolved-suite.json and
// suite.json under <OutDir>/<suite-name>/, next to one directory per
// member run, so the whole comparison is reproducible from one file.
func RunSuite(s *Suite, opt RunOptions) (*SuiteReport, error) {
	resolved, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	rep := &SuiteReport{Suite: resolved, Reports: make([]*Report, len(resolved.Runs))}
	memberOut := ""
	if opt.OutDir != "" {
		memberOut = filepath.Join(opt.OutDir, resolved.Name)
	}
	// Members are independent (disjoint seeds, resolved configs) and each
	// engine run is bitwise deterministic, so they execute concurrently —
	// as many at once as the process budget allows — and land in run-list
	// order; per-run results and the joint table are byte-identical at any
	// setting.
	errs := make([]error, len(resolved.Runs))
	engine.Concurrently(len(resolved.Runs), 0, func(k int) {
		rep.Reports[k], errs[k] = Run(resolved.Runs[k].Manifest, RunOptions{Quick: opt.Quick, OutDir: memberOut})
	})
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("suite %q: run %q: %w", resolved.Name, resolved.Runs[k].Manifest.Name, err)
		}
		resolved.Runs[k].Manifest = rep.Reports[k].Manifest
	}
	rep.Table = resolved.buildTable(rep.Reports)
	if opt.OutDir != "" {
		if err := rep.write(memberOut); err != nil {
			return nil, err
		}
		rep.Dir = memberOut
	}
	return rep, nil
}

// buildTable groups the member reports by arm (in first-appearance order)
// and summarizes each metric.
func (s *Suite) buildTable(reports []*Report) *SuiteTable {
	target := 0.0
	if s.Output != nil {
		target = s.Output.TargetLoss
	}
	table := &SuiteTable{Suite: s.Name, TargetLoss: target}
	type armAcc struct {
		runs                 []string
		times, losses, bytes []float64
		timeToLoss           []float64
		reached              int
	}
	var order []string
	acc := make(map[string]*armAcc)
	for k, mem := range s.Runs {
		a, ok := acc[mem.Arm]
		if !ok {
			a = &armAcc{}
			acc[mem.Arm] = a
			order = append(order, mem.Arm)
		}
		r := reports[k]
		a.runs = append(a.runs, mem.Manifest.Name)
		if r.Engine != nil {
			a.times = append(a.times, r.Engine.TotalTime)
			a.losses = append(a.losses, r.Engine.FinalLoss)
			a.bytes = append(a.bytes, float64(r.Engine.BytesSent))
			if target > 0 {
				if t := r.Engine.TimeToLoss(target); t >= 0 {
					a.timeToLoss = append(a.timeToLoss, t)
					a.reached++
				}
			}
		} else {
			a.times = append(a.times, r.Live.Elapsed.Seconds())
			a.losses = append(a.losses, r.Live.FinalLoss)
			a.bytes = append(a.bytes, float64(r.Live.BytesOnWire))
		}
	}
	for _, arm := range order {
		a := acc[arm]
		row := ArmSummary{
			Arm:         arm,
			N:           len(a.runs),
			Runs:        a.runs,
			TotalTime:   distOf(a.times),
			FinalLoss:   distOf(a.losses),
			BytesOnWire: distOf(a.bytes),
		}
		if target > 0 {
			row.Reached = a.reached
			if a.reached > 0 {
				d := distOf(a.timeToLoss)
				row.TimeToLoss = &d
			}
		}
		table.Arms = append(table.Arms, row)
	}
	return table
}

// write emits resolved-suite.json and suite.json under dir (already the
// suite's own directory; member runs have written their subdirectories).
func (rep *SuiteReport) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := writeJSON(filepath.Join(dir, "resolved-suite.json"), rep.Suite); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "suite.json"), rep.Table)
}

// WriteTable renders the joint table as aligned text: one row per arm,
// mean +/- stddev per metric.
func (t *SuiteTable) WriteTable(w io.Writer) error {
	if t.TargetLoss > 0 {
		if _, err := fmt.Fprintf(w, "suite %s (target loss %g):\n", t.Suite, t.TargetLoss); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(w, "suite %s:\n", t.Suite); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "  %-24s %3s  %-22s %-22s %-22s %s\n",
		"arm", "n", "time (s)", "final loss", "bytes on wire", "time-to-loss (s)"); err != nil {
		return err
	}
	for _, a := range t.Arms {
		ttl := "-"
		if t.TargetLoss > 0 {
			if a.TimeToLoss != nil {
				ttl = fmt.Sprintf("%s (%d/%d reached)", a.TimeToLoss.fmt(), a.Reached, a.N)
			} else {
				ttl = fmt.Sprintf("not reached (0/%d)", a.N)
			}
		}
		if _, err := fmt.Fprintf(w, "  %-24s %3d  %-22s %-22s %-22s %s\n",
			a.Arm, a.N, a.TotalTime.fmt(), a.FinalLoss.fmt(), a.BytesOnWire.fmt(), ttl); err != nil {
			return err
		}
	}
	return nil
}

func (d Dist) fmt() string {
	return fmt.Sprintf("%.4g +/- %.3g", d.Mean, d.Std)
}
