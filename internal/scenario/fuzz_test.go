package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseManifest feeds arbitrary bytes to Parse, seeded with every file
// of the scenario library. Parse must never panic, and whatever it accepts
// must resolve to a manifest that marshals, parses and validates again: the
// resolved.json a run writes is always a runnable manifest.
func FuzzParseManifest(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed manifests under scenarios/ (%v)", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := Parse(raw)
		if err != nil {
			return
		}
		out, err := json.Marshal(m.Resolved())
		if err != nil {
			t.Fatalf("resolved manifest does not marshal: %v", err)
		}
		if _, err := Parse(out); err != nil {
			t.Fatalf("resolved manifest does not parse back: %v\n%s", err, out)
		}
	})
}
