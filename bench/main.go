// Command bench is the repository's end-to-end benchmark: four workloads,
// one per deployment shape, six end-to-end metrics each, and a separate
// traced run that prices every layer. README.md explains the design;
// BENCHMARK.json at the repository root is its contract.
//
//	bash bench/run.sh --workload round-wire --seed 1 --seconds 28 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"github.com/dbdc-go/dbdc/internal/benchio"
)

// hostStamp says where the numbers come from; it heads every output.
type hostStamp struct {
	NumCPU         int    `json:"num_cpu"`
	GoMaxProcs     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	GoOS           string `json:"goos"`
	GoArch         string `json:"goarch"`
	KernelDispatch string `json:"kernel_dispatch"`
}

func stampHost() hostStamp {
	var rep benchio.Report
	benchio.StampHost(&rep)
	return hostStamp{
		NumCPU: rep.NumCPU, GoMaxProcs: rep.GoMaxProcs, GoVersion: runtime.Version(),
		GoOS: rep.GoOS, GoArch: rep.GoArch, KernelDispatch: rep.KernelDispatch,
	}
}

func (h hostStamp) String() string {
	return fmt.Sprintf("%s/%s, %d CPU, GOMAXPROCS %d, %s, kernels %s",
		h.GoOS, h.GoArch, h.NumCPU, h.GoMaxProcs, h.GoVersion, h.KernelDispatch)
}

// Trace modes of the -trace flag.
const (
	traceOff  = 0  // end-to-end metrics only, tracing off
	traceOn   = 1  // per-layer metrics only, from the traced run
	traceBoth = -1 // both runs, one after the other: every metric
)

func main() {
	var (
		p         params
		trace     int
		selfcheck bool
		runs      int
	)
	flag.StringVar(&p.workload, "workload", "", "round-bulk, round-wire, stream-churn or classify-swap")
	flag.Int64Var(&p.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&p.seconds, "seconds", 28, "seconds of measured laps")
	flag.IntVar(&trace, "trace", traceBoth, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; -1: both")
	flag.StringVar(&p.traceOut, "trace-out", "", "write the traced run's spans to this file")
	flag.Float64Var(&p.scale, "scale", 1, "shrink round-bulk's data set (tests only)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run two sets of runs of this build and compare them against the bounds in BENCHMARK.json")
	flag.IntVar(&runs, "runs", 10, "with -selfcheck: runs per workload and set, each on another seed")
	flag.Parse()

	host := stampHost()
	if selfcheck {
		seconds := 0.0 // BENCHMARK.json's run_seconds unless -seconds was given
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seconds" {
				seconds = p.seconds
			}
		})
		ok, err := selfCheck(host, "BENCHMARK.json", seconds, runs, p.workload)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	res, err := run(p, trace, host)
	if err != nil {
		fatal(err)
	}
	if err := report(os.Stdout, p, trace, host, res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run makes one run of one workload in the given trace mode.
func run(p params, trace int, host hostStamp) (*result, error) {
	if p.seconds <= 0 || p.scale <= 0 {
		return nil, fmt.Errorf("-seconds and -scale must be positive")
	}
	switch trace {
	case traceOff:
		return runEndToEnd(p)
	case traceOn:
		return runTraced(p, host)
	case traceBoth:
		res, err := runEndToEnd(p)
		if err != nil {
			return nil, err
		}
		layers, err := runTraced(p, host)
		if err != nil {
			return nil, err
		}
		for name, v := range layers.metrics {
			res.metrics[name] = v
		}
		res.correct = res.correct && layers.correct
		res.attempted += layers.attempted
		res.failed += layers.failed
		if res.note == "" {
			res.note = layers.note
		}
		return res, nil
	}
	return nil, fmt.Errorf("-trace must be 0, 1 or -1, got %d", trace)
}

// expected returns the metrics a run in the given trace mode must emit.
func expected(trace int) []metricSpec {
	switch trace {
	case traceOff:
		return endToEnd
	case traceOn:
		return perLayer
	}
	return append(append([]metricSpec(nil), endToEnd...), perLayer...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// infoPrefix marks a value a workload reports beside the contract's
// metrics, as a cross-check; it is printed as a comment.
const infoPrefix = "info."

// report prints every metric by name with its unit, then the result line.
// A metric the run did not produce, or produced without being asked, is an
// error: the output is exactly the contract's list.
func report(out io.Writer, p params, trace int, host hostStamp, res *result) error {
	specs := expected(trace)
	line := resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "# host: %s\n", host)
	fmt.Fprintf(out, "# workload %s, seed %d, %g s of laps, %d laps attempted, %d failed\n",
		p.workload, p.seed, p.seconds, res.attempted, res.failed)
	if res.note != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", p.workload, res.note)
	}
	for _, s := range specs {
		v, ok := res.metrics[s.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", p.workload, s.Name)
		}
		fmt.Fprintf(out, "%-36s %16.6f %s\n", s.Name, v, s.Unit)
		line.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	var extra []string
	for name, v := range res.metrics {
		if strings.HasPrefix(name, infoPrefix) {
			fmt.Fprintf(out, "# %s %.6f\n", name, v)
		} else if _, ok := line.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("%s: metrics outside the contract: %v", p.workload, extra)
	}
	return json.NewEncoder(out).Encode(line)
}
