// Command netmax-policy runs the communication-policy generator
// (Algorithm 3) standalone on an iteration-time matrix and prints the
// resulting probabilities and spectral diagnostics. Useful for inspecting
// what the Network Monitor would ship for a given network condition.
//
// Input is JSON on stdin or via -times:
//
//	{"alpha": 0.1, "times": [[0,1,9],[1,0,2],[9,2,0]]}
//
// At most 256 workers. Missing adjacency means fully connected. Optional
// fields: "alpha" (the learning rate, default 0.1), "adj" and "rounds"
// (Algorithm 3's grid size K = R, 2 to 64); zero or absent selects the
// default, and a negative alpha is invalid input. Unknown fields (the
// retired "epsilon" among them: no policy depends on Eq. 9's ε) and data
// after the object are errors.
// "adj" is the paper's undirected graph: an adjacency that is not
// symmetric, or marks a worker its own neighbor, is invalid input, and a
// graph that is not connected has no policy. Both exit 1 with the error.
//
//	echo '{"alpha":0.1,"times":[[0,1,9],[1,0,2],[9,2,0]]}' | netmax-policy
//	netmax-policy -demo
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"netmax/internal/linalg"
	"netmax/internal/policy"
	"netmax/internal/simnet"
)

type input struct {
	Alpha  float64     `json:"alpha"`
	Times  [][]float64 `json:"times"`
	Adj    [][]bool    `json:"adj,omitempty"`
	Rounds int         `json:"rounds,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the command with its arguments and streams; it returns the exit
// status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netmax-policy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		demo    = fs.Bool("demo", false, "run on the paper's Fig. 2 example instead of stdin")
		jsonOut = fs.Bool("json", false, "emit the policy as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var in input
	if *demo {
		// Fig. 2 at time T2: node 3's links t(3,1)=9, t(3,2)=12, t(3,4)=12
		// (5 nodes, other links fast).
		in = input{Alpha: 0.1, Times: fig2Times()}
	} else {
		dec := json.NewDecoder(stdin)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&in); err != nil {
			fmt.Fprintln(stderr, "error: reading JSON input:", err)
			return 1
		}
		if _, err := dec.Token(); err != io.EOF {
			fmt.Fprintln(stderr, "error: reading JSON input: trailing data after the object")
			return 1
		}
	}
	if in.Alpha == 0 {
		in.Alpha = 0.1
	}
	if in.Adj == nil {
		in.Adj = simnet.FullyConnected(len(in.Times))
	}

	pol, err := policy.Generate(policy.Input{
		Times: in.Times, Adj: in.Adj, Alpha: in.Alpha, Rounds: in.Rounds,
	})
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(pol); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "rho          = %.4f\n", pol.Rho)
	fmt.Fprintf(stdout, "lambda2      = %.6f\n", pol.Lambda2)
	fmt.Fprintf(stdout, "mean iter t  = %.4fs\n", pol.TBar)
	fmt.Fprintf(stdout, "predicted Tc = %.2fs\n", pol.TConvergence)
	fmt.Fprintln(stdout, "policy matrix P (rows: workers; diagonal: skip-communication mass):")
	for i, row := range pol.P {
		fmt.Fprintf(stdout, "  w%-2d:", i)
		for _, v := range row {
			fmt.Fprintf(stdout, " %6.3f", v)
		}
		fmt.Fprintln(stdout)
	}
	y := policy.BuildY(pol.P, in.Times, in.Adj, in.Alpha, pol.Rho)
	if y.IsDoublyStochastic(1e-6) {
		fmt.Fprintln(stdout, "Y_P check    : doubly stochastic (Theorem 3 invariant holds)")
	} else {
		fmt.Fprintln(stdout, "Y_P check    : NOT doubly stochastic — inspect the input matrix")
	}
	if eig, err := linalg.SymmetricEigenvalues(y); err == nil {
		fmt.Fprintf(stdout, "Y_P spectrum : lambda1=%.6f lambda2=%.6f lambdaN=%.6f\n", eig[0], eig[1], eig[len(eig)-1])
	}
	return 0
}

// fig2Times builds a 5-node matrix shaped like the paper's Fig. 2 (T2):
// node 2 (0-indexed) has one 9s link and two 12s links; everything else 1s.
func fig2Times() [][]float64 {
	m := 5
	t := make([][]float64, m)
	for i := range t {
		t[i] = make([]float64, m)
		for j := range t[i] {
			if i != j {
				t[i][j] = 1
			}
		}
	}
	set := func(i, j int, v float64) { t[i][j] = v; t[j][i] = v }
	set(2, 0, 9)
	set(2, 1, 12)
	set(2, 3, 12)
	return t
}
