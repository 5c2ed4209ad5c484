package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"netmax/internal/engine"
)

func sampleResult() *engine.Result {
	return &engine.Result{
		Algo: "NetMax",
		Curve: []engine.Point{
			{Epoch: 1, Time: 2.5, Value: 1.2},
			{Epoch: 2, Time: 5.0, Value: 0.8},
		},
		FinalLoss:     0.8,
		FinalAccuracy: 0.91,
		TotalTime:     5.0,
		GlobalSteps:   100,
		CompSecs:      1.5,
		CommSecs:      3.5,
		Epochs:        2,
	}
}

func TestWriteCurveCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := writeCurveCSV(&buf, sampleResult().Curve); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	if lines[0] != "epoch,time_seconds,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1,2.5,1.2" {
		t.Fatalf("row = %q", lines[1])
	}
}

// readResultJSON parses a result.json back into an engine.Result.
func readResultJSON(raw []byte) (*engine.Result, error) {
	var res engine.Result
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&res); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	return &res, nil
}

// resultJSON writes r with writeJSON into dir and returns the file's bytes.
func resultJSON(t testing.TB, dir string, r *engine.Result) []byte {
	t.Helper()
	path := filepath.Join(dir, "result.json")
	if err := writeJSON(path, r); err != nil {
		t.Fatalf("writeJSON: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestResultJSONRoundTrip(t *testing.T) {
	r := sampleResult()
	got, err := readResultJSON(resultJSON(t, t.TempDir(), r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Algo != r.Algo || got.FinalLoss != r.FinalLoss || got.TotalTime != r.TotalTime ||
		got.GlobalSteps != r.GlobalSteps || len(got.Curve) != len(r.Curve) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
	if got.Curve[1] != r.Curve[1] {
		t.Fatalf("curve point mismatch: %+v vs %+v", got.Curve[1], r.Curve[1])
	}
}

func TestReadResultJSONBadInput(t *testing.T) {
	if _, err := readResultJSON([]byte("{nope")); err == nil {
		t.Fatal("expected decode error")
	}
}

// FuzzResultJSON feeds arbitrary bytes to readResultJSON, a reader for
// result files that come back from disk. Nothing may panic, and a result
// it accepts must re-encode through writeJSON and read back to the same
// engine.Result.
//
//	go test -run '^$' -fuzz FuzzResultJSON -fuzztime 20s ./internal/scenario/
func FuzzResultJSON(f *testing.F) {
	for _, r := range []*engine.Result{sampleResult(), {}, {Algo: "AD-PSGD", Curve: []engine.Point{}, BytesSent: 1 << 40}} {
		f.Add(resultJSON(f, f.TempDir(), r))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := readResultJSON(raw)
		if err != nil {
			return
		}
		again, err := readResultJSON(resultJSON(t, t.TempDir(), r))
		if err != nil {
			t.Fatalf("re-encoded result does not read back: %v", err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("round trip changed the result: %+v, read %+v", again, r)
		}
	})
}
