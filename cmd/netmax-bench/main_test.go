package main

import (
	"bytes"
	"strings"
	"testing"

	"netmax/internal/engine"
)

func TestWriteCurvesCSVSortedSeries(t *testing.T) {
	var buf bytes.Buffer
	curves := map[string][]engine.Point{
		"b": {{Epoch: 1, Time: 1, Value: 2}},
		"a": {{Epoch: 1, Time: 1, Value: 3}},
	}
	if err := writeCurvesCSV(&buf, curves); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ia, ib := strings.Index(out, "\na,"), strings.Index(out, "\nb,")
	if ia == -1 || ib == -1 || ia > ib {
		t.Fatalf("series not sorted:\n%s", out)
	}
}
