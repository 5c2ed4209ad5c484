package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the SHA-256 lists in testdata/ from this tree")

// TestQuickOutputsDigest runs every checked-in engine manifest and suite
// at quick scale into one output tree, as `netmax-scenario run -quick -out
// DIR` would, and pins the SHA-256 of every file it writes, resolved
// manifests included. Engine runs are deterministic, so a digest that
// moves means an output changed; regenerate the list with -update only for
// a change that is meant to move numbers. Live runs read the wall clock
// and are skipped.
func TestQuickOutputsDigest(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, path := range paths {
		m, s, err := LoadAny(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s != nil {
			if s.Runs[0].Manifest.Runtime == "live" {
				continue
			}
			if _, err := RunSuite(s, RunOptions{Quick: true, OutDir: out}); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			continue
		}
		if m.Resolved().Runtime == "live" {
			continue
		}
		if _, err := Run(m, RunOptions{Quick: true, OutDir: out}); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	var got bytes.Buffer
	err = filepath.WalkDir(out, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(out, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(raw), filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, filepath.Join("testdata", "quick-outputs.sha256"), got.Bytes(), "output")
}

// TestResolvedManifestsDigest pins the SHA-256 of the indented JSON of
// every checked-in manifest's Resolved form, full-scale and with its quick
// overrides applied, and of every suite's Resolve and its quickRuns.
// It covers the live manifests, whose runs TestQuickOutputsDigest skips,
// and the defaults resolution writes into every resolved.json.
func TestResolvedManifestsDigest(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	add := func(name, form string, v any) {
		raw, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%x  %s %s\n", sha256.Sum256(raw), name, form)
	}
	for _, path := range paths {
		name := filepath.Base(path)
		m, s, err := LoadAny(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s != nil {
			r, err := s.Resolve()
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			add(name, "full", r)
			add(name, "quick", quickRuns(r))
			continue
		}
		add(name, "full", m.Resolved())
		add(name, "quick", m.applyQuick().Resolved())
	}
	checkDigests(t, filepath.Join("testdata", "resolved-manifests.sha256"), got.Bytes(), "resolved-manifest")
}

// quickRuns returns the resolved suite r with each member in the form
// RunSuite runs and records under RunOptions.Quick: its quick overrides
// applied, then resolved, as Run resolves it.
func quickRuns(r *Suite) *Suite {
	q := *r
	q.Runs = make([]SuiteMember, len(r.Runs))
	for i, mem := range r.Runs {
		q.Runs[i] = SuiteMember{Manifest: mem.Manifest.applyQuick().Resolved(), Arm: mem.Arm}
	}
	return &q
}

// checkDigests compares got with the digest list at path, or rewrites the
// list under -update.
func checkDigests(t *testing.T, path string, got []byte, what string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("%s digests differ from %s (%d entries)\n--- got ---\n%s--- want ---\n%s",
			what, path, bytes.Count(got, []byte("\n")), got, want)
	}
}
