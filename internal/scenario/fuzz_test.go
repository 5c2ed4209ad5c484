package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"netmax/internal/live"
)

// FuzzParseManifest feeds arbitrary bytes to Parse, seeded with every file
// of the scenario library, two manifests naming the retired top-k codec
// and one with a stray closing brace. Parse must never panic, whatever it
// accepts must be one valid JSON document, and it must resolve to a
// manifest that marshals, parses and validates again: the resolved.json a
// run writes is always a runnable manifest. An accepted engine manifest
// must also build, in its full and its quick form, without an error or a
// panic: past validation, the builders cannot fail. An accepted live
// manifest must give live.Run a positive monitor period and a positive
// retry cooldown for a masked peer, as live.Timing computes them.
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
	// The retired top-k codec, by name and by its old field: the parser
	// must reject both, and their mutations explore the codec block.
	f.Add([]byte(`{"name": "x", "codec": {"name": "topk"}}`))
	f.Add([]byte(`{"name": "x", "codec": {"name": "topk", "topk_frac": 0.1}}`))
	f.Add([]byte(`{"name": "x"}}`))
	// A live manifest at the wall-clock caps, and two past them, whose
	// period or cooldown overflows a time.Duration: the parser must reject
	// both.
	f.Add([]byte(`{"name": "x", "runtime": "live", "live": {"iterations": 5, "ts_millis": 3600000}, "netmax": {"stale_periods": 1000}}`))
	f.Add([]byte(`{"name": "x", "runtime": "live", "live": {"iterations": 5, "ts_millis": 10000000000000}}`))
	f.Add([]byte(`{"name": "x", "runtime": "live", "live": {"iterations": 5}, "netmax": {"stale_periods": 100000000000}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := Parse(raw)
		if err != nil {
			return
		}
		if !json.Valid(raw) {
			t.Fatalf("Parse accepted invalid JSON %q", raw)
		}
		out, err := json.Marshal(m.Resolved())
		if err != nil {
			t.Fatalf("resolved manifest does not marshal: %v", err)
		}
		if _, err := Parse(out); err != nil {
			t.Fatalf("resolved manifest does not parse back: %v\n%s", err, out)
		}
		if m.Resolved().Runtime == "live" {
			p, err := m.prepare()
			if err != nil {
				t.Fatalf("accepted manifest does not build: %v\n%s", err, raw)
			}
			ts, cooldown := live.Timing(live.Config{NetMax: p.opts})
			if ts <= 0 || cooldown <= 0 {
				t.Fatalf("accepted live manifest runs a monitor period of %v and a retry cooldown of %v\n%s", ts, cooldown, raw)
			}
			return
		}
		for _, form := range []*Manifest{m, m.applyQuick()} {
			if _, _, err := form.BuildEngine(); err != nil {
				t.Fatalf("accepted manifest does not build: %v\n%s", err, raw)
			}
		}
	})
}

// FuzzParseSuite feeds arbitrary bytes to the suite loader, seeded with
// every suite of the scenario library and one suite with a stray closing
// brace; member paths resolve against scenarios/, as they do for the
// checked-in files. Loading must never panic, whatever it accepts must be
// one valid JSON document, and an accepted suite's Resolve() output must marshal, parse
// back and resolve to the same bytes: resolved-suite.json is a fixed point.
func FuzzParseSuite(f *testing.F) {
	dir := filepath.Join("..", "..", "scenarios")
	paths, err := filepath.Glob(filepath.Join(dir, "suite-*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed suites under scenarios/ (%v)", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"name": "x", "runs": [{"path": "churn-crash-rejoin.json"}]}}`))
	resolve := func(t *testing.T, s *Suite) []byte {
		t.Helper()
		r, err := s.Resolve()
		if err != nil {
			t.Fatalf("valid suite does not resolve: %v", err)
		}
		out, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("resolved suite does not marshal: %v", err)
		}
		return out
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := decodeStrict[Suite](raw, "suite")
		if err != nil {
			return
		}
		s.dir = dir
		if s.Validate() != nil {
			return
		}
		if !json.Valid(raw) {
			t.Fatalf("suite loader accepted invalid JSON %q", raw)
		}
		out := resolve(t, s)
		back, err := ParseSuite(out)
		if err != nil {
			t.Fatalf("resolved suite does not parse back: %v\n%s", err, out)
		}
		if again := resolve(t, back); !bytes.Equal(again, out) {
			t.Fatalf("resolving a resolved suite changed it:\n%s\n%s", out, again)
		}
	})
}
