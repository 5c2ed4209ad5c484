package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenIDs together cover every network kind, partition kind, compute
// straggler, monitor-period sweep, worker-count sweep and Hop staleness
// bound the experiments build.
var goldenIDs = []string{
	"abl-dpsgd", "abl-hop", "abl-saps", "abl-straggler", "abl-ts",
	"fig10", "fig16", "fig18", "fig19",
}

// renderQuickTables renders the quick seed-1 tables of goldenIDs in order.
func renderQuickTables(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, id := range goldenIDs {
		res, err := Run(id, Options{Seed: 1, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		res.WriteTable(&buf)
	}
	return buf.Bytes()
}

// TestQuickTablesGolden pins the rendered output of a cross-section of
// experiments byte for byte. Every run is deterministic given (id, seed,
// quick), so any drift means a run was configured or executed differently.
func TestQuickTablesGolden(t *testing.T) {
	path := filepath.Join("testdata", "quick-seed1.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := renderQuickTables(t)
	if !bytes.Equal(got, want) {
		t.Errorf("rendered tables differ from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
