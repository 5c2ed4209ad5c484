package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
	if err := WriteCurveCSV(&buf, sampleResult().Curve); err != nil {
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

func TestWriteCurvesCSVSortedSeries(t *testing.T) {
	var buf bytes.Buffer
	curves := map[string][]engine.Point{
		"b": {{Epoch: 1, Time: 1, Value: 2}},
		"a": {{Epoch: 1, Time: 1, Value: 3}},
	}
	if err := WriteCurvesCSV(&buf, curves); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ia, ib := strings.Index(out, "\na,"), strings.Index(out, "\nb,")
	if ia == -1 || ib == -1 || ia > ib {
		t.Fatalf("series not sorted:\n%s", out)
	}
}

// readResultJSON parses a result written by WriteResultJSON back into an
// engine.Result.
func readResultJSON(r io.Reader) (*engine.Result, error) {
	var res engine.Result
	if err := json.NewDecoder(r).Decode(&res); err != nil {
		return nil, fmt.Errorf("trace: decode result: %w", err)
	}
	return &res, nil
}

func TestResultJSONRoundTrip(t *testing.T) {
	r := sampleResult()
	var buf bytes.Buffer
	if err := WriteResultJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := readResultJSON(&buf)
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
	if _, err := readResultJSON(strings.NewReader("{nope")); err == nil {
		t.Fatal("expected decode error")
	}
}

// FuzzResultJSON feeds arbitrary bytes to readResultJSON, a reader for
// result files that come back from disk. Nothing may panic, and a result
// it accepts must re-encode and read back to the same engine.Result.
//
//	go test -run '^$' -fuzz FuzzResultJSON -fuzztime 20s ./internal/trace/
func FuzzResultJSON(f *testing.F) {
	for _, r := range []*engine.Result{sampleResult(), {}, {Algo: "AD-PSGD", Curve: []engine.Point{}, BytesSent: 1 << 40}} {
		var buf bytes.Buffer
		if err := WriteResultJSON(&buf, r); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := readResultJSON(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteResultJSON(&buf, r); err != nil {
			t.Fatalf("accepted result does not re-encode: %v", err)
		}
		again, err := readResultJSON(&buf)
		if err != nil {
			t.Fatalf("re-encoded result does not read back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("round trip changed the result: %+v, read %+v", again, r)
		}
	})
}
