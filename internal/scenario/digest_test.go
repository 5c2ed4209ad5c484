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
			resolved, err := s.Resolve(true)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if resolved.Runs[0].Manifest.Runtime == "live" {
				continue
			}
			if _, err := RunSuite(s, SuiteRunOptions{Quick: true, OutDir: out}); err != nil {
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
// overrides applied, and of every suite's Resolve(false) and Resolve(true).
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
			for _, quick := range []bool{false, true} {
				r, err := s.Resolve(quick)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				form := "full"
				if quick {
					form = "quick"
				}
				add(name, form, r)
			}
			continue
		}
		add(name, "full", m.Resolved())
		add(name, "quick", m.applyQuick().Resolved())
	}
	checkDigests(t, filepath.Join("testdata", "resolved-manifests.sha256"), got.Bytes(), "resolved-manifest")
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
