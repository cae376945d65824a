// Command figures regenerates every table and figure of the paper on
// the simulated KNL machine.
//
// Usage:
//
//	figures                 # render all experiments as text
//	figures -exp fig4b      # one experiment
//	figures -csv            # CSV output
//	figures -j 4            # run experiments through a 4-worker pool
//	figures -verify         # paper-vs-reproduction check table
//	figures -verify -md     # the same as a Markdown table (EXPERIMENTS.md)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1, table2, latency, fig2..fig6d) or 'all'")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	verify := flag.Bool("verify", false, "run paper-vs-reproduction checks")
	md := flag.Bool("md", false, "with -verify: render Markdown")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "experiment worker pool size")
	flag.Parse()

	sys, err := core.NewSystem()
	if err != nil {
		fatal(err)
	}

	if *verify {
		checks, err := harness.VerifyAll(sys, *jobs)
		if err != nil {
			fatal(err)
		}
		failed := 0
		if *md {
			fmt.Println("| Experiment | Claim | Paper | Reproduction | Status |")
			fmt.Println("|---|---|---|---|---|")
			for _, c := range checks {
				status := "pass"
				if !c.Pass {
					status = "FAIL"
					failed++
				}
				fmt.Printf("| %s | %s | %s | %s | %s |\n", c.Experiment, c.Name, c.Paper, c.Got, status)
			}
		} else {
			for _, c := range checks {
				status := "pass"
				if !c.Pass {
					status = "FAIL"
					failed++
				}
				fmt.Printf("%-8s %-45s paper: %-18s got: %-16s %s\n",
					c.Experiment, c.Name, c.Paper, c.Got, status)
			}
		}
		fmt.Printf("\n%d checks, %d failed\n", len(checks), failed)
		if failed > 0 {
			os.Exit(1)
		}
		return
	}

	// Experiments run concurrently through the bounded pool; results
	// print in paper order regardless of completion order.
	var results []harness.RunResult
	if *exp == "all" {
		results = harness.RunAll(sys, *jobs)
	} else {
		e, err := harness.ByID(*exp)
		if err != nil {
			fatal(err)
		}
		tbl, err := e.Run(sys)
		results = []harness.RunResult{{Experiment: e, Table: tbl, Err: err}}
	}
	for _, r := range results {
		if r.Err != nil {
			fatal(fmt.Errorf("%s: %w", r.Experiment.ID, r.Err))
		}
		if *csv {
			fmt.Print(r.Table.RenderCSV())
		} else {
			fmt.Println(r.Table.Render())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
