package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestMalformedInputExitsWithMessage pins inputs that used to panic with an
// index out of range (ragged times, ragged adjacency) or print a policy for
// impossible link times (negative times): each now exits 1 with the
// policy package's invalid-input message.
func TestMalformedInputExitsWithMessage(t *testing.T) {
	for name, in := range map[string]string{
		"ragged times":   `{"alpha":0.1,"times":[[0,1,2],[1,0],[2,1,0]]}`,
		"ragged adj":     `{"alpha":0.1,"times":[[0,1,2],[1,0,2],[2,1,0]],"adj":[[false,true,true],[true,false],[true,true,false]]}`,
		"negative times": `{"alpha":0.1,"times":[[0,-1,2],[-1,0,2],[2,2,0]]}`,
	} {
		var stdout, stderr bytes.Buffer
		if code := run(nil, strings.NewReader(in), &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit %d, want 1 (stdout %q)", name, code, stdout.String())
		}
		if !strings.Contains(stderr.String(), "policy: invalid input") {
			t.Errorf("%s: stderr %q lacks the invalid-input message", name, stderr.String())
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
