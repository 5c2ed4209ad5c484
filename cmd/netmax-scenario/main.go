// Command netmax-scenario runs, validates and lists declarative scenario
// manifests and suites (internal/scenario): JSON documents that fully
// describe a training run — runtime, algorithm, topology, network dynamics,
// data partitioning, heterogeneity, failure schedule, codec, seeds — or a
// whole comparison (a suite: N runs expanded from algorithm/codec arms and
// replication seeds, summarized in one joint table). Scenarios are data
// instead of code; the checked-in library lives under scenarios/.
//
//	netmax-scenario list ./scenarios
//	netmax-scenario validate ./scenarios/...
//	netmax-scenario run scenarios/churn-crash-rejoin.json
//	netmax-scenario run -quick -out runs scenarios/compression-float32.json
//	netmax-scenario run -quick -par 2 scenarios/suite-cluster-comparison.json
//
// Every run writes its fully-resolved manifest (every default made
// explicit) next to its results — <out>/<name>/resolved.json — so any
// reported number is reproducible from one file; a suite run additionally
// writes <out>/<suite>/resolved-suite.json (the explicit run list) and
// <out>/<suite>/suite.json (the per-arm mean +/- stddev table):
//
//	netmax-scenario run runs/churn-crash-rejoin/resolved.json
//	netmax-scenario run runs/suite-cluster-comparison/resolved-suite.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"netmax/internal/engine"
	"netmax/internal/scenario"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  netmax-scenario run [-quick] [-out dir] [-par n] <manifest-or-suite.json>...
  netmax-scenario validate <file|dir|dir/...>...
  netmax-scenario list <file|dir|dir/...>...
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		runCmd(os.Args[2:])
	case "validate":
		validateCmd(os.Args[2:])
	case "list":
		listCmd(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "netmax-scenario: unknown subcommand %q\n", os.Args[1])
		usage()
	}
}

// expand turns file/dir/"dir/..." arguments into a flat list of manifest
// paths (every *.json under a directory, recursively).
func expand(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		a = strings.TrimSuffix(a, "/...")
		info, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, a)
			continue
		}
		err = filepath.WalkDir(a, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".json") {
				out = append(out, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no manifests found in %v", args)
	}
	return out, nil
}

func runCmd(args []string) {
	fl := flag.NewFlagSet("run", flag.ExitOnError)
	quick := fl.Bool("quick", false, "apply the manifest's quick overrides (smoke scale)")
	out := fl.String("out", "runs", "directory for per-scenario outputs (resolved.json, result.json, curve.csv); empty disables file output")
	par := fl.Int("par", 0, "host parallelism: 0 = NumCPU, 1 = serial; results are identical either way")
	fl.Parse(args)
	if fl.NArg() == 0 {
		usage()
	}
	if *par < 0 {
		fmt.Fprintln(os.Stderr, "error: -par must be >= 0")
		os.Exit(2)
	}
	// -par sizes the process's one host-concurrency budget (a suite's
	// member runs, a synchronous baseline's gradient round) without
	// touching the manifests, so emitted resolved manifests — and
	// therefore the reproducibility diffs — are identical at any -par.
	engine.SetParallelism(*par)
	paths, err := expand(fl.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	opt := scenario.RunOptions{Quick: *quick, OutDir: *out}
	for _, path := range paths {
		m, s, err := scenario.LoadAny(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if s != nil {
			rep, err := scenario.RunSuite(s, opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			for _, r := range rep.Reports {
				fmt.Println(r.Summary())
			}
			if err := rep.Table.WriteTable(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			if rep.Dir != "" {
				fmt.Printf("  outputs: %s (resolved run list + joint table + per-run results)\n", rep.Dir)
			}
			continue
		}
		rep, err := scenario.Run(m, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Println(rep.Summary())
		if rep.Dir != "" {
			fmt.Printf("  outputs: %s (resolved manifest + results)\n", rep.Dir)
		}
	}
}

func validateCmd(args []string) {
	if len(args) == 0 {
		usage()
	}
	paths, err := expand(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	bad := 0
	for _, path := range paths {
		if err := check(path); err != nil {
			bad++
			fmt.Fprintf(os.Stderr, "INVALID %s\n  %v\n", path, err)
			continue
		}
		fmt.Printf("ok      %s\n", path)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d manifests invalid\n", bad, len(paths))
		os.Exit(1)
	}
	fmt.Printf("%d manifests valid\n", len(paths))
}

// check loads a manifest or suite and sets up each of its runs as run
// does before training: it builds the data, the partition and the hub,
// and trains nothing.
func check(path string) error {
	m, s, err := scenario.LoadAny(path)
	if err != nil {
		return err
	}
	runs := []scenario.SuiteMember{{Manifest: m}}
	if s != nil {
		runs = s.Runs
	}
	for _, r := range runs {
		if err := setUp(r.Manifest); err != nil {
			return err
		}
	}
	return nil
}

// setUp builds the resolved manifest m as run does, then releases the hub.
func setUp(m *scenario.Manifest) error {
	if m.Runtime != "live" {
		_, _, err := m.BuildEngine()
		return err
	}
	_, _, closeHub, err := m.BuildLive()
	return errors.Join(err, closeHub())
}

func listCmd(args []string) {
	if len(args) == 0 {
		args = []string{"scenarios"}
	}
	paths, err := expand(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	for _, path := range paths {
		m, s, err := scenario.LoadAny(path)
		if err != nil {
			fmt.Printf("%-34s  (invalid: %v)\n", filepath.Base(path), err)
			continue
		}
		if s != nil {
			kind := fmt.Sprintf("suite/%d runs", len(s.Runs))
			fmt.Printf("%-34s  %-22s  %s\n", s.Name, kind, s.Description)
			continue
		}
		kind := fmt.Sprintf("%s/%s", m.Runtime, m.Algorithm)
		fmt.Printf("%-34s  %-22s  %s\n", m.Name, kind, m.Description)
	}
}
