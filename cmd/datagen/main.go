// Command datagen generates the evaluation data sets as CSV.
//
// Usage:
//
//	datagen -dataset A [-n 8700] [-seed 1] [-o points.csv]
//
// Data sets: A (randomly generated clusters, scalable), B (4000 objects,
// very noisy), C (1021 objects, 3 clusters).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/dbdc-go/dbdc/internal/data"
)

func main() {
	name := flag.String("dataset", "A", "dataset to generate: A, B or C")
	n := flag.Int("n", data.DatasetASize, "cardinality (dataset A only)")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	var ds data.Dataset
	switch *name {
	case "A", "a":
		ds = data.DatasetA(*n, *seed)
	case "B", "b":
		ds = data.DatasetB(*seed)
	case "C", "c":
		ds = data.DatasetC(*seed)
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown dataset %q (have A, B, C)\n", *name)
		os.Exit(1)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		w = f
	}
	err := data.WriteCSV(w, ds.Points)
	if w != os.Stdout {
		// A write the file system defers can fail only here.
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "datagen: wrote %d points of dataset %s (suggested DBSCAN: eps=%g minpts=%d)\n",
		len(ds.Points), ds.Name, ds.Params.Eps, ds.Params.MinPts)
}
