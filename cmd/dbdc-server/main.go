// Command dbdc-server runs the central DBDC site: it waits for the given
// number of client sites to upload their local models, computes the global
// model and sends it back to every site.
//
// Usage:
//
//	dbdc-server -addr :7070 -sites 3 -eps 1.2 -minpts 4 [-epsglobal 0] \
//	    [-quorum 2] [-accept-timeout 30s] [-expect-sites site-1,site-2,site-3]
//
// A round completes as soon as all expected sites delivered a model, or at
// the accept deadline with at least -quorum usable models (the paper's
// "the server proceeds with the models it has"). The per-site round report
// — who delivered, who failed and why, who retried, and the per-phase
// breakdown (worker count, local DBSCAN, condensation, backoff) for sites
// that attached metrics to their upload — is printed after every round.
// With -report-json the aggregated breakdown is additionally written in
// the internal/benchio schema (the BENCH_<rev>.json format), so wire-level
// runs can be committed and diffed with cmd/benchdiff exactly like the
// in-process benchmark artifacts. Pair it with dbdc-site processes
// pointing at the same address.
//
// With -serve-classify the server doubles as an online classification
// front end: every completed round publishes its global model into a
// versioned registry (hot-swapped atomically under live traffic) and the
// process keeps answering MsgClassify/MsgClassifyBatch requests after the
// last round until killed. -metrics-addr additionally exposes Prometheus
// metrics (QPS, latency percentiles, model version) over HTTP. See
// docs/serving.md.
//
// With -stream the server runs the always-on streaming deployment instead
// of synchronous rounds: sites connect whenever their clustering changed,
// uploading full models or streaming deltas (docs/streaming.md); the
// global model is rebuilt on a debounced schedule (-debounce) with stable
// cluster ids and hot-swapped into the classification registry
// continuously. The process serves until killed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	lib "github.com/dbdc-go/dbdc"
	"github.com/dbdc-go/dbdc/internal/benchio"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/serve"
	"github.com/dbdc-go/dbdc/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	sites := flag.Int("sites", 2, "number of distinct sites per round")
	eps := flag.Float64("eps", 0, "Eps_local the sites use (required; validates models)")
	minPts := flag.Int("minpts", 0, "MinPts the sites use (required)")
	epsGlobal := flag.Float64("epsglobal", 0, "Eps_global; 0 = paper default (max specific ε-range)")
	rounds := flag.Int("rounds", 1, "number of DBDC rounds to serve before exiting")
	timeout := flag.Duration("timeout", 30*time.Second, "per-connection I/O timeout")
	quorum := flag.Int("quorum", 0, "minimum usable site models per round; 0 = proceed with any")
	acceptTimeout := flag.Duration("accept-timeout", 0, "accept-phase deadline per round; 0 = -timeout")
	expectSites := flag.String("expect-sites", "", "comma-separated site ids for per-name failure reporting")
	maxUploadBytes := flag.Int64("max-upload-bytes", 0, "byte cap on every uploaded frame (0 = no cap); budgeted sites learn it in the handshake and shrink their rep budget until the model frame fits, any other upload over it is refused")
	reportJSON := flag.String("report-json", "", "write the per-round phase breakdown as a benchio JSON report to this file (\"-\" = stdout)")
	rev := flag.String("rev", "", "source revision recorded in the JSON report")
	serveClassify := flag.String("serve-classify", "", "serve online classification on this address (e.g. :7072); every completed round hot-swaps the model, and the server keeps answering after the last round until killed")
	classifyIndex := flag.String("classify-index", string(index.KindKDTree), "spatial index the classifier bulk-loads the representatives into")
	metricsAddr := flag.String("metrics-addr", "", "expose Prometheus metrics over HTTP on this address (e.g. :9090)")
	streamMode := flag.Bool("stream", false, "run the always-on streaming server (accepts full and delta uploads, rebuilds continuously) instead of synchronous rounds")
	debounce := flag.Duration("debounce", 100*time.Millisecond, "with -stream: coalesce delta folds arriving within this window into one global rebuild (0 = rebuild per fold)")
	flag.Parse()

	if *eps <= 0 || *minPts < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := lib.Config{
		Local:     lib.Params{Eps: *eps, MinPts: *minPts},
		EpsGlobal: *epsGlobal,
	}
	if *streamMode {
		runStreamServer(*addr, cfg, *timeout, *debounce, *maxUploadBytes, *serveClassify, *classifyIndex, *metricsAddr)
		return
	}
	srv, err := transport.NewServer(*addr, *sites, cfg, *timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbdc-server: %v\n", err)
		os.Exit(1)
	}
	defer srv.Close()
	srv.SetMaxUploadBytes(*maxUploadBytes)

	// Online classification: completed rounds publish their global model
	// into a versioned registry; a front end answers MsgClassify frames
	// against the current snapshot and hot-swaps between rounds.
	var classifySrv *serve.Server
	var classifyDone chan error
	if *serveClassify != "" {
		ik := index.Kind(*classifyIndex)
		valid := false
		for _, k := range index.Kinds() {
			if k == ik {
				valid = true
			}
		}
		if !valid {
			fmt.Fprintf(os.Stderr, "dbdc-server: unknown -classify-index %q (want one of %v)\n", *classifyIndex, index.Kinds())
			os.Exit(2)
		}
		registry := serve.NewRegistry(ik)
		metrics := serve.NewMetrics(registry)
		srv.SetOnGlobal(registry.PublishFunc(func(err error) {
			fmt.Fprintf(os.Stderr, "dbdc-server: publishing global model: %v\n", err)
		}))
		classifySrv, err = serve.NewServer(*serveClassify, serve.ServerConfig{
			Registry: registry,
			Metrics:  metrics,
			Timeout:  *timeout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbdc-server: %v\n", err)
			os.Exit(1)
		}
		defer classifySrv.Close()
		classifyDone = make(chan error, 1)
		go func() { classifyDone <- classifySrv.Serve() }()
		fmt.Fprintf(os.Stderr, "dbdc-server: serving classification on %s (index %s)\n",
			classifySrv.Addr(), ik)
		if *metricsAddr != "" {
			closeFn, bound, err := metrics.ListenAndServe(*metricsAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dbdc-server: %v\n", err)
				os.Exit(1)
			}
			defer closeFn()
			fmt.Fprintf(os.Stderr, "dbdc-server: metrics on http://%s/metrics\n", bound)
		}
	} else if *metricsAddr != "" {
		fmt.Fprintln(os.Stderr, "dbdc-server: -metrics-addr needs -serve-classify")
		os.Exit(2)
	}
	opts := transport.RoundOptions{
		Quorum:        *quorum,
		AcceptTimeout: *acceptTimeout,
	}
	if *expectSites != "" {
		for _, id := range strings.Split(*expectSites, ",") {
			if id = strings.TrimSpace(id); id != "" {
				opts.ExpectedSites = append(opts.ExpectedSites, id)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "dbdc-server: listening on %s for %d sites (quorum %d)\n",
		srv.Addr(), *sites, *quorum)
	// The JSON report accumulates one entry group per round (prefix
	// "round=N/") and is rewritten after every round, so a killed server
	// still leaves the completed rounds on disk.
	jsonReport := &benchio.Report{Rev: *rev, Timestamp: time.Now().UTC().Format(time.RFC3339)}
	for round := 1; round <= *rounds; round++ {
		global, report, err := srv.RunRoundOpts(opts)
		if report != nil {
			fmt.Fprintf(os.Stderr, "dbdc-server: %s\n", report)
			if *reportJSON != "" {
				prefix := ""
				if *rounds > 1 {
					prefix = fmt.Sprintf("round=%d/", round)
				}
				jsonReport.Entries = append(jsonReport.Entries, report.BenchReport(*rev, prefix).Entries...)
				// Files are rewritten whole after every round so a killed
				// server keeps its completed rounds; stdout is written
				// once, after the last round.
				if *reportJSON != "-" || round == *rounds {
					if werr := writeReport(*reportJSON, jsonReport); werr != nil {
						fmt.Fprintf(os.Stderr, "dbdc-server: writing %s: %v\n", *reportJSON, werr)
						os.Exit(1)
					}
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbdc-server: round %d failed: %v\n", round, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr,
			"dbdc-server: round %d: %d representatives in %d global clusters (Eps_global=%g), in=%dB out=%dB\n",
			round, len(global.Reps), global.NumClusters, global.EpsGlobal,
			srv.BytesIn(), srv.BytesOut())
	}
	// With a classification front end, the rounds only feed the registry:
	// the process keeps answering queries until killed.
	if classifySrv != nil {
		fmt.Fprintln(os.Stderr, "dbdc-server: rounds done; serving classification until killed")
		if err := <-classifyDone; err != nil {
			fmt.Fprintf(os.Stderr, "dbdc-server: %v\n", err)
			os.Exit(1)
		}
	}
}

// runStreamServer is the -stream mode: an UpdateServer folding full and
// delta uploads until killed, optionally fronted by a classification
// server whose registry hot-swaps on every debounced rebuild.
func runStreamServer(addr string, cfg lib.Config, timeout, debounce time.Duration, maxUploadBytes int64, serveClassify, classifyIndex, metricsAddr string) {
	srv, err := lib.NewUpdateServer(addr, cfg, timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbdc-server: %v\n", err)
		os.Exit(1)
	}
	defer srv.Close()
	srv.SetDebounce(debounce)
	srv.SetMaxUploadBytes(maxUploadBytes)

	var classifyDone chan error
	if serveClassify != "" {
		ik := index.Kind(classifyIndex)
		valid := false
		for _, k := range index.Kinds() {
			if k == ik {
				valid = true
			}
		}
		if !valid {
			fmt.Fprintf(os.Stderr, "dbdc-server: unknown -classify-index %q (want one of %v)\n", classifyIndex, index.Kinds())
			os.Exit(2)
		}
		registry := serve.NewRegistry(ik)
		metrics := serve.NewMetrics(registry)
		srv.SetOnGlobal(registry.PublishFunc(func(err error) {
			fmt.Fprintf(os.Stderr, "dbdc-server: publishing global model: %v\n", err)
		}))
		cs, err := serve.NewServer(serveClassify, serve.ServerConfig{
			Registry: registry,
			Metrics:  metrics,
			Timeout:  timeout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbdc-server: %v\n", err)
			os.Exit(1)
		}
		defer cs.Close()
		classifyDone = make(chan error, 1)
		go func() { classifyDone <- cs.Serve() }()
		fmt.Fprintf(os.Stderr, "dbdc-server: serving classification on %s (index %s)\n", cs.Addr(), ik)
		if metricsAddr != "" {
			closeFn, bound, err := metrics.ListenAndServe(metricsAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dbdc-server: %v\n", err)
				os.Exit(1)
			}
			defer closeFn()
			fmt.Fprintf(os.Stderr, "dbdc-server: metrics on http://%s/metrics\n", bound)
		}
	} else if metricsAddr != "" {
		fmt.Fprintln(os.Stderr, "dbdc-server: -metrics-addr needs -serve-classify")
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "dbdc-server: streaming mode on %s (debounce %s)\n", srv.Addr(), debounce)
	if err := srv.Serve(0); err != nil {
		fmt.Fprintf(os.Stderr, "dbdc-server: %v\n", err)
		os.Exit(1)
	}
	if classifyDone != nil {
		if err := <-classifyDone; err != nil {
			fmt.Fprintf(os.Stderr, "dbdc-server: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeReport writes the accumulated benchio report to path ("-" =
// stdout). The file is truncated and rewritten whole each round.
func writeReport(path string, rep *benchio.Report) error {
	if path == "-" {
		return benchio.Write(os.Stdout, rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := benchio.Write(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
