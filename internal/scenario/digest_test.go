package scenario

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick-outputs.sha256 from this tree's outputs")

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
	path := filepath.Join("testdata", "quick-outputs.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output digests differ from %s (%d files written)\n--- got ---\n%s--- want ---\n%s",
			path, strings.Count(got.String(), "\n"), got.Bytes(), want)
	}
}
