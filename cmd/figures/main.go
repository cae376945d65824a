// Command figures regenerates every table and figure of the paper on
// the simulated KNL machine. Figure panels are campaign points,
// evaluated through the same service.Executor that serves /v1/run.
//
// Usage:
//
//	figures                 # render all experiments as text
//	figures -exp fig4b      # one experiment
//	figures -csv            # CSV output
//	figures -verify         # paper-vs-reproduction check table
//	figures -verify -md     # the same as a Markdown table (EXPERIMENTS.md)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/service"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1, table2, latency, fig2..fig6d) or 'all'")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	verify := flag.Bool("verify", false, "run paper-vs-reproduction checks")
	md := flag.Bool("md", false, "with -verify: render Markdown")
	flag.Parse()

	failed, err := run(os.Stdout, *exp, *csv, *verify, *md)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// run writes the selected experiments, or with verify the check table,
// to w and returns the number of failed checks.
func run(w io.Writer, exp string, csv, verify, md bool) (int, error) {
	ctx := context.Background()
	r, err := service.NewExecutor().Runner(campaign.DefaultSKU)
	if err != nil {
		return 0, err
	}
	if verify {
		return writeChecks(ctx, w, r, md)
	}
	exps := harness.All()
	if exp != "all" {
		e, err := harness.ByID(exp)
		if err != nil {
			return 0, err
		}
		exps = []harness.Experiment{e}
	}
	for _, e := range exps {
		t, err := r.Run(ctx, e)
		if err != nil {
			return 0, err
		}
		if csv {
			fmt.Fprint(w, t.RenderCSV())
		} else {
			fmt.Fprintln(w, t.Render())
		}
	}
	return 0, nil
}

// writeChecks renders the paper-vs-reproduction checks as aligned text
// or a Markdown table.
func writeChecks(ctx context.Context, w io.Writer, r harness.Runner, md bool) (int, error) {
	checks, err := r.VerifyAll(ctx)
	if err != nil {
		return 0, err
	}
	if md {
		fmt.Fprintln(w, "| Experiment | Claim | Paper | Reproduction | Status |")
		fmt.Fprintln(w, "|---|---|---|---|---|")
	}
	failed := 0
	for _, c := range checks {
		status := "pass"
		if !c.Pass {
			status = "FAIL"
			failed++
		}
		if md {
			fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n", c.Experiment, c.Name, c.Paper, c.Got, status)
		} else {
			fmt.Fprintf(w, "%-8s %-45s paper: %-18s got: %-16s %s\n", c.Experiment, c.Name, c.Paper, c.Got, status)
		}
	}
	fmt.Fprintf(w, "\n%d checks, %d failed\n", len(checks), failed)
	return failed, nil
}
