// Command experiments regenerates the tables and figures of the DBDC
// paper's evaluation (Section 9).
//
// Usage:
//
//	experiments [-run all|fig7a|fig7b|fig8|fig9|fig10|fig11] [-seed N]
//	            [-scale F] [-index rstar|linear|mtree]
//
// The output tables map one-to-one to the paper's figures; EXPERIMENTS.md
// records the paper-versus-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/dbdc-go/dbdc/internal/experiments"
	"github.com/dbdc-go/dbdc/internal/index"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all, fig7a, fig7b, fig8, fig9, fig10, fig11, transmission, budgets, hierarchy, baselines, comparison, dimensions, optics-sweep, partitions, incremental")
	seed := flag.Int64("seed", 2004, "random seed for data generation and partitioning")
	scale := flag.Float64("scale", 1.0, "cardinality scale in (0,1]; use small values for quick runs")
	idx := flag.String("index", "rstar", "neighborhood index: rstar, linear, mtree")
	format := flag.String("format", "text", "output format: text or md")
	flag.Parse()
	printTable := func(t *experiments.Table) {
		if *format == "md" {
			t.FprintMarkdown(os.Stdout)
			return
		}
		t.Fprint(os.Stdout)
	}

	opt := experiments.Options{Seed: *seed, Scale: *scale, Index: index.Kind(*idx)}
	var err error
	if *run == "all" {
		var tables []*experiments.Table
		tables, err = experiments.All(opt)
		for _, t := range tables {
			printTable(t)
		}
	} else {
		var runner func(experiments.Options) (*experiments.Table, error)
		runner, err = experiments.ByID(*run)
		if err == nil {
			var t *experiments.Table
			t, err = runner(opt)
			if err == nil {
				printTable(t)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
