// Command experiments regenerates the tables and figures of the DBDC
// paper's evaluation (Section 9).
//
// Usage:
//
//	experiments [-run all|fig7a|fig7b|fig8|fig9|fig10|fig11] [-seed N]
//	            [-scale F]
//
// The output tables map one-to-one to the paper's figures; EXPERIMENTS.md
// records the paper-versus-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/dbdc-go/dbdc/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all, fig7a, fig7b, fig8, fig9, fig10, fig11, transmission, budgets, hierarchy, baselines, comparison, dimensions, optics-sweep, partitions, incremental")
	seed := flag.Int64("seed", 2004, "random seed for data generation and partitioning")
	scale := flag.Float64("scale", 1.0, "cardinality scale in (0,1]; use small values for quick runs")
	format := flag.String("format", "text", "output format: text or md")
	flag.Parse()
	printTable := func(t *experiments.Table) {
		if *format == "md" {
			t.FprintMarkdown(os.Stdout)
			return
		}
		t.Fprint(os.Stdout)
	}

	opt := experiments.Options{Seed: *seed, Scale: *scale}
	var err error
	if *run == "all" {
		var tables []*experiments.Table
		tables, err = experiments.All(opt)
		for _, t := range tables {
			printTable(t)
		}
	} else {
		runner, idErr := experiments.ByID(*run)
		if idErr != nil {
			// The error names its package already.
			fmt.Fprintln(os.Stderr, idErr)
			os.Exit(1)
		}
		var t *experiments.Table
		if t, err = runner(opt); err == nil {
			printTable(t)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
