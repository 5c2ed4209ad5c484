package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"netmax/internal/scenario"
)

// TestMain lets a test run the command: with NETMAX_SCENARIO_MAIN set, the
// test binary is netmax-scenario itself.
func TestMain(m *testing.M) {
	if os.Getenv("NETMAX_SCENARIO_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command runs netmax-scenario with args and returns its exit code, stdout
// and stderr.
func command(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NETMAX_SCENARIO_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("netmax-scenario %v: %v", args, err)
	}
	return code, out.String(), errOut.String()
}

// TestValidateRejectsWhatRunRejects validates testdata/skew250.json, a
// label-skew manifest that passes the structural checks but leaves workers
// with no training rows: 250 MNIST workers that each lose classes 1-9
// share class 0's rows, which run out. run rejects it during set-up;
// validate must print the same error and exit 1.
func TestValidateRejectsWhatRunRejects(t *testing.T) {
	const path = "testdata/skew250.json"
	code, _, runErr := command(t, "run", "-out", "", path)
	want := strings.TrimSpace(strings.TrimPrefix(runErr, "error: "))
	if code != 1 || !strings.Contains(want, "gets no training rows") {
		t.Fatalf("run exited %d with %q, want 1 and a starved worker named", code, runErr)
	}
	code, _, stderr := command(t, "validate", path)
	if code != 1 || !strings.Contains(stderr, "INVALID "+path+"\n  "+want+"\n") {
		t.Fatalf("validate exited %d with %q, want 1 and run's error %q", code, stderr, want)
	}
}

// TestValidateAcceptsTheLibrary validates every checked-in manifest and
// suite: each is checked in its full and its quick form, and each run is
// built in its full form.
func TestValidateAcceptsTheLibrary(t *testing.T) {
	code, stdout, stderr := command(t, "validate", "../../scenarios/...")
	if code != 0 || !strings.HasSuffix(stdout, " manifests valid\n") {
		t.Fatalf("validate exited %d:\n%s%s", code, stdout, stderr)
	}
}

// TestListTheLibrary lists every checked-in manifest and suite: one valid
// line per file, in expand's order, and a suite's run count is the length
// of its authored form's full-scale run list.
func TestListTheLibrary(t *testing.T) {
	const library = "../../scenarios/..."
	code, stdout, stderr := command(t, "list", library)
	if code != 0 {
		t.Fatalf("list exited %d:\n%s%s", code, stdout, stderr)
	}
	paths, err := expand([]string{library})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != len(paths) {
		t.Fatalf("list printed %d lines for %d files:\n%s", len(lines), len(paths), stdout)
	}
	suites := 0
	for i, path := range paths {
		line := lines[i]
		if strings.Contains(line, "(invalid") {
			t.Fatalf("list called %s invalid: %s", path, line)
		}
		// list prints what LoadAny returns, so the expected line comes
		// from the authored file instead: LoadSuite or Load, then resolved.
		_, s, err := scenario.LoadAny(path)
		if err != nil {
			t.Fatal(err)
		}
		var name, want string
		if s != nil {
			authored, err := scenario.LoadSuite(path)
			if err != nil {
				t.Fatal(err)
			}
			resolved, err := authored.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			name, want = authored.Name, fmt.Sprintf("suite/%d runs", len(resolved.Runs))
			suites++
		} else {
			m, err := scenario.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			r := m.Resolved()
			name, want = r.Name, r.Runtime+"/"+r.Algorithm
		}
		if f := strings.Fields(line); len(f) < 2 || f[0] != name || !strings.HasPrefix(strings.Join(f[1:], " ")+" ", want+" ") {
			t.Errorf("list printed %q for %s, want name %q and kind %q", line, path, name, want)
		}
	}
	if suites == 0 {
		t.Fatal("the library lists no suite")
	}
}
