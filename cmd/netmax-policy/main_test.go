package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestMalformedInputExitsWithMessage pins inputs that used to panic with an
// index out of range (ragged times, ragged adjacency), print a policy for
// impossible link times (negative times), or silently run the defaults (a
// negative alpha, a misspelled or retired field such as the old
// outer_rounds or epsilon, a stray closing brace or a negative rounds),
// report a one-point grid as "no feasible policy", or
// score a grid too large to finish: each now exits 1 with a message
// naming the fault. A directed adjacency is invalid input, and a
// disconnected one has no policy.
func TestMalformedInputExitsWithMessage(t *testing.T) {
	for name, c := range map[string]struct{ in, msg string }{
		"ragged times":     {`{"alpha":0.1,"times":[[0,1,2],[1,0],[2,1,0]]}`, "policy: invalid input"},
		"ragged adj":       {`{"alpha":0.1,"times":[[0,1,2],[1,0,2],[2,1,0]],"adj":[[false,true,true],[true,false],[true,true,false]]}`, "policy: invalid input"},
		"negative times":   {`{"alpha":0.1,"times":[[0,-1,2],[-1,0,2],[2,2,0]]}`, "policy: invalid input"},
		"negative alpha":   {`{"alpha":-5,"times":[[0,1,9],[1,0,2],[9,2,0]]}`, "policy: invalid input: learning rate -5"},
		"unknown field":    {`{"alpha":0.1,"times":[[0,1],[1,0]],"outer_rounds":5}`, `unknown field "outer_rounds"`},
		"stray brace":      {`{"alpha":0.1,"times":[[0,1],[1,0]]}}`, "trailing data"},
		"one round":        {`{"alpha":0.1,"times":[[0,1,9],[1,0,2],[9,2,0]],"rounds":1}`, "policy: invalid input: rounds 1"},
		"negative rounds":  {`{"alpha":0.1,"times":[[0,1,9],[1,0,2],[9,2,0]],"rounds":-5}`, "policy: invalid input: rounds -5"},
		"rounds above cap": {`{"alpha":0.1,"times":[[0,1,9],[1,0,2],[9,2,0]],"rounds":65}`, "policy: invalid input: rounds 65"},
		"retired epsilon":  {`{"alpha":0.1,"times":[[0,1,9],[1,0,2],[9,2,0]],"epsilon":0.05}`, `unknown field "epsilon"`},
		"asymmetric adj":   {`{"alpha":0.1,"times":[[0,1,9],[1,0,2],[9,2,0]],"adj":[[false,true,true],[true,false,true],[true,false,false]]}`, "policy: invalid input"},
		"disconnected adj": {`{"alpha":0.1,"times":[[0,1,9,1],[1,0,2,1],[9,2,0,1],[1,1,1,0]],"adj":[[false,true,false,false],[true,false,false,false],[false,false,false,true],[false,false,true,false]]}`, "policy: no feasible policy"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(nil, strings.NewReader(c.in), &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit %d, want 1 (stdout %q)", name, code, stdout.String())
		}
		if !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("%s: stderr %q lacks %q", name, stderr.String(), c.msg)
		}
	}
}

func TestDemoPrintsPolicy(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-demo"}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "doubly stochastic (Theorem 3 invariant holds)") {
		t.Fatalf("demo output:\n%s", stdout.String())
	}
}

// TestRoundsSetsTheGrid runs a valid input that sets rounds: a three-point
// grid gives a different policy from the default ten-point one.
func TestRoundsSetsTheGrid(t *testing.T) {
	gen := func(in string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-json"}, strings.NewReader(in), &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		return stdout.String()
	}
	times := `"times":[[0,1,9],[1,0,2],[9,2,0]]`
	if three, def := gen(`{"alpha":0.1,`+times+`,"rounds":3}`), gen(`{"alpha":0.1,`+times+`}`); three == def {
		t.Fatalf("rounds 3 printed the default grid's policy:\n%s", three)
	}
}
