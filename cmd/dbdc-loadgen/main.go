// Command dbdc-loadgen drives a classification front end (dbdc-server or
// dbdc-site with -serve-classify) with closed- or open-loop load and
// reports throughput and latency percentiles.
//
// Usage:
//
//	dbdc-loadgen -addr 127.0.0.1:7072 [-conc 8] [-duration 10s] [-batch 16] \
//	    [-rate 5000] [-dataset a|b|c] [-n 8700] [-seed 1] [-input points.csv]
//
// By default each worker owns one persistent connection and keeps exactly
// one request in flight (send, wait, record, repeat), so the offered load
// adapts to what the server sustains — the standard closed-loop
// benchmarking model. With -rate N the generator switches to an open loop:
// Poisson arrivals at the target aggregate rate regardless of server speed,
// with latency measured from the scheduled arrival so queueing delay under
// overload shows up in the tail percentiles (no coordinated omission). The
// summary then also reports achieved vs target rate, the maximum queue
// depth, and any shed arrivals.
// The query pool is either a CSV of points (-input) or a generated paper
// dataset (-dataset/-n/-seed, matching cmd/datagen).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/profiles"
	"github.com/dbdc-go/dbdc/internal/serve"
)

// stopProfiles finalizes any pprof captures; fatal routes through it so the
// profile files are complete even when the run aborts.
var stopProfiles func() error

func main() {
	addr := flag.String("addr", "127.0.0.1:7072", "classification front end address")
	conc := flag.Int("conc", 0, "concurrent workers (connections); 0 = GOMAXPROCS")
	duration := flag.Duration("duration", 5*time.Second, "run length")
	batch := flag.Int("batch", 1, "points per request (1 = MsgClassify, >1 = MsgClassifyBatch)")
	rate := flag.Float64("rate", 0, "open-loop mode: target aggregate request rate per second with Poisson arrivals (0 = closed loop)")
	dataset := flag.String("dataset", "a", "query pool generator: a, b or c (paper test data sets)")
	n := flag.Int("n", data.DatasetASize, "query pool cardinality (dataset a only)")
	seed := flag.Int64("seed", 1, "query pool generator seed")
	input := flag.String("input", "", "CSV of query points (overrides -dataset)")
	timeout := flag.Duration("timeout", 10*time.Second, "dial and per-request I/O timeout")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the load run to the file")
	memProfile := flag.String("memprofile", "", "write a heap profile of the load run to the file")
	flag.Parse()

	stop, err := profiles.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop

	pts, err := queryPool(*input, *dataset, *n, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dbdc-loadgen: %d query points against %s\n", len(pts), *addr)
	res, err := serve.RunLoad(serve.LoadConfig{
		Addr:        *addr,
		Concurrency: *conc,
		Duration:    *duration,
		BatchSize:   *batch,
		Points:      pts,
		Timeout:     *timeout,
		Rate:        *rate,
		Seed:        *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dbdc-loadgen: %s\n", res)
	if err := stop(); err != nil {
		stopProfiles = nil // already finalized; don't run it twice
		fatal(err)
	}
}

// queryPool loads the query points from a CSV or generates a paper dataset,
// mirroring cmd/datagen's -dataset selection.
func queryPool(input, dataset string, n int, seed int64) ([]geom.Point, error) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return data.ReadCSV(f)
	}
	switch dataset {
	case "a", "A":
		return data.DatasetA(n, seed).Points, nil
	case "b", "B":
		return data.DatasetB(seed).Points, nil
	case "c", "C":
		return data.DatasetC(seed).Points, nil
	default:
		return nil, fmt.Errorf("unknown -dataset %q (want a, b or c)", dataset)
	}
}

func fatal(err error) {
	if stopProfiles != nil {
		stopProfiles()
	}
	fmt.Fprintf(os.Stderr, "dbdc-loadgen: %v\n", err)
	os.Exit(1)
}
