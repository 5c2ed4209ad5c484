package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"netmax/internal/engine"
)

var update = flag.Bool("update", false, "rewrite testdata/quick-seed1.sha256 from this tree's tables")

// TestQuickTablesDigest pins every experiment's quick seed-1 output by
// its SHA-256: the table with its notes, then each curve's points at full
// precision (the tables round, the curves do not). Runs are deterministic
// given (id, seed, quick), so a digest that moves means an output changed;
// regenerate the list with -update only for a change that is meant to move
// numbers.
func TestQuickTablesDigest(t *testing.T) {
	all := All()
	tables := make([][]byte, len(all))
	errs := make([]error, len(all))
	engine.Concurrently(len(all), 0, func(k int) {
		res, err := all[k].Run(Options{Seed: 1, Quick: true})
		if err != nil {
			errs[k] = fmt.Errorf("%s: %w", all[k].ID, err)
			return
		}
		var buf bytes.Buffer
		res.WriteTable(&buf)
		labels := make([]string, 0, len(res.Curves))
		for label := range res.Curves {
			labels = append(labels, label)
		}
		sort.Strings(labels)
		for _, label := range labels {
			for _, p := range res.Curves[label] {
				fmt.Fprintf(&buf, "%s,%v,%v,%v\n", label, p.Epoch, p.Time, p.Value)
			}
		}
		tables[k] = buf.Bytes()
	})
	var got bytes.Buffer
	for k, r := range all {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(tables[k]), r.ID)
	}
	checkDigests(t, filepath.Join("testdata", "quick-seed1.sha256"), got.Bytes())
}

// checkDigests compares a digest list with the one at path, or rewrites
// the file under -update.
func checkDigests(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("digests differ from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
