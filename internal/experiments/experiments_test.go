package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func quick(t *testing.T, id string) *Result {
	t.Helper()
	res, err := Run(id, Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result id = %q, want %q", res.ID, id)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for _, row := range res.Rows {
		if len(row) != len(res.Header) {
			t.Fatalf("%s: row %v does not match header %v", id, row, res.Header)
		}
	}
	return res
}

func cell(t *testing.T, res *Result, rowMatch func([]string) bool, col string) float64 {
	t.Helper()
	ci := -1
	for i, h := range res.Header {
		if h == col {
			ci = i
		}
	}
	if ci == -1 {
		t.Fatalf("column %q not in %v", col, res.Header)
	}
	for _, row := range res.Rows {
		if rowMatch(row) {
			s := strings.TrimSuffix(row[ci], "%")
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatalf("cell %q not numeric: %v", row[ci], err)
			}
			return v
		}
	}
	t.Fatalf("no row matched in %v", res.Rows)
	return 0
}

func hasAlgo(name string) func([]string) bool {
	return func(row []string) bool {
		for _, c := range row {
			if c == name {
				return true
			}
		}
		return false
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestAllRegistered(t *testing.T) {
	want := []string{"fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"tab2", "tab3", "tab5", "abl-blend", "abl-ts", "abl-beta", "abl-rounds"}
	got := map[string]bool{}
	for _, r := range All() {
		got[r.ID] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	res := quick(t, "fig3")
	for _, row := range res.Rows {
		ratio, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio < 1.5 || ratio > 5 {
			t.Errorf("%s inter/intra ratio %v outside the paper's 2-4x band", row[0], ratio)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	res := quick(t, "fig5")
	isModel := func(model, algo string) func([]string) bool {
		return func(row []string) bool { return row[0] == model && row[1] == algo }
	}
	for _, model := range []string{"ResNet18", "VGG19"} {
		netmax := cell(t, res, isModel(model, "NetMax"), "comm cost (s)")
		adpsgd := cell(t, res, isModel(model, "AD-PSGD"), "comm cost (s)")
		prague := cell(t, res, isModel(model, "Prague"), "comm cost (s)")
		if netmax >= adpsgd {
			t.Errorf("%s: NetMax comm %v >= AD-PSGD %v", model, netmax, adpsgd)
		}
		if netmax >= prague {
			t.Errorf("%s: NetMax comm %v >= Prague %v", model, netmax, prague)
		}
		// Computation costs are approximately equal across approaches.
		compN := cell(t, res, isModel(model, "NetMax"), "comp cost (s)")
		compA := cell(t, res, isModel(model, "AD-PSGD"), "comp cost (s)")
		if compN < compA*0.5 || compN > compA*2 {
			t.Errorf("%s: comp costs diverge: %v vs %v", model, compN, compA)
		}
	}
}

func TestFig7AdaptiveBeatsUniform(t *testing.T) {
	res := quick(t, "fig7")
	for _, row := range res.Rows {
		su, _ := strconv.ParseFloat(row[1], 64) // serial+uniform
		pa, _ := strconv.ParseFloat(row[4], 64) // parallel+adaptive
		if pa >= su {
			t.Errorf("%s: full NetMax (%v) not faster than serial+uniform (%v)", row[0], pa, su)
		}
	}
}

func TestFig8NetMaxWins(t *testing.T) {
	res := quick(t, "fig8")
	isModel := func(model, algo string) func([]string) bool {
		return func(row []string) bool { return row[0] == model && row[1] == algo }
	}
	for _, model := range []string{"ResNet18", "VGG19"} {
		nm := cell(t, res, isModel(model, "NetMax"), "total time (s)")
		for _, other := range []string{"Prague", "Allreduce-SGD", "AD-PSGD"} {
			o := cell(t, res, isModel(model, other), "total time (s)")
			if nm >= o {
				t.Errorf("%s: NetMax total %v >= %s %v", model, nm, other, o)
			}
		}
	}
	if len(res.Curves) == 0 {
		t.Error("fig8 should expose curves")
	}
}

func TestTab2AccuraciesComparable(t *testing.T) {
	res := quick(t, "tab2")
	for _, row := range res.Rows {
		for _, c := range row[2:] {
			v, err := strconv.ParseFloat(strings.TrimSuffix(c, "%"), 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < 50 {
				t.Errorf("accuracy %v%% too low in row %v", v, row)
			}
		}
	}
}

func TestFig15MonitorHelpsADPSGD(t *testing.T) {
	res := quick(t, "fig15")
	ad := cell(t, res, hasAlgo("AD-PSGD"), "total time (s)")
	ext := cell(t, res, hasAlgo("AD-PSGD+Monitor"), "total time (s)")
	if ext >= ad {
		t.Errorf("AD-PSGD+Monitor (%v) not faster than AD-PSGD (%v)", ext, ad)
	}
}

func TestFig19CrossRegion(t *testing.T) {
	res := quick(t, "fig19")
	nm := cell(t, res, hasAlgo("NetMax"), "total time (s)")
	ps := cell(t, res, hasAlgo("PS-syn"), "total time (s)")
	if nm >= ps {
		t.Errorf("NetMax (%v) not faster than PS-syn (%v) across regions", nm, ps)
	}
}

func TestAblBlendRuns(t *testing.T) {
	res := quick(t, "abl-blend")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestWriteTableRenders(t *testing.T) {
	res := &Result{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n1"},
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "333", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}
