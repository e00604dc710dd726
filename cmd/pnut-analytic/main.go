// pnut-analytic is the analytical performance evaluator the paper's
// conclusion mentions ("Other tools support analytical (as opposed to
// simulation) performance evaluation"): for a bounded net with constant
// delays it computes exact steady-state place utilizations and
// transition throughputs from the timed reachability graph [RP84] — no
// simulation run, no confidence intervals. The solver's iteration
// count and checked residual ‖πP−π‖₁ go to stderr.
//
//	pnut-analytic -net testdata/pipeline.pn -place Bus_busy -trans Issue
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analytic"
	"repro/internal/ptl"
	"repro/internal/reach"
)

type repeated []string

func (r *repeated) String() string { return strings.Join(*r, ", ") }

func (r *repeated) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	netPath := flag.String("net", "", "path to the .pn net description (required)")
	maxStates := flag.Int("max-states", 500_000, "timed state-space cap")
	all := flag.Bool("all", false, "report every place and transition")
	var places, transitions repeated
	flag.Var(&places, "place", "place whose utilization to report (repeatable)")
	flag.Var(&transitions, "trans", "transition whose throughput to report (repeatable)")
	flag.Parse()

	if *netPath == "" {
		fmt.Fprintln(os.Stderr, "pnut-analytic: -net is required")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*netPath)
	if err != nil {
		fatal(err)
	}
	net, err := ptl.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	r, err := analytic.Evaluate(context.Background(), net, reach.Options{MaxStates: *maxStates})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "solver: %d iterations, residual %.3g\n", r.Iterations, r.Residual)
	fmt.Printf("analytic steady state of %q: %d timed states, mean sojourn %.6f\n",
		net.Name, r.States, r.MeanSojourn)
	if *all {
		for _, p := range net.Places {
			places = append(places, p.Name)
		}
		for i := range net.Trans {
			transitions = append(transitions, net.Trans[i].Name)
		}
	}
	for _, p := range places {
		u, err := r.Utilization(p)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("place %-32s avg tokens %.6f\n", p, u)
	}
	for _, t := range transitions {
		th, err := r.Throughput(t)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trans %-32s throughput %.6f\n", t, th)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnut-analytic:", err)
	os.Exit(1)
}
