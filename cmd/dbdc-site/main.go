// Command dbdc-site runs one client site of a networked DBDC deployment:
// it clusters a local CSV with DBSCAN, uploads the local model to the
// server, receives the global model and writes its relabelled objects.
//
// Usage:
//
//	dbdc-site -addr server:7070 -id site-1 -input local.csv -eps 1.2 -minpts 4 [-workers 4]
//
// -workers > 1 runs the local DBSCAN with that many intra-site goroutines,
// each issuing the range queries of a contiguous share of the objects
// against the site's one index; the uploaded model is the same at every
// count. The per-phase costs are printed after the round and attached to the
// upload so the server's round report can show the paper's
// max(local)+global decomposition.
//
// -rep-budget caps the representatives shipped per local cluster (the
// SDBDC bandwidth budget, docs/budgets.md): the site greedily keeps the
// most-covering specific cores, negotiates the server's upload byte cap via
// the MsgHello handshake and shrinks further if the model still does not
// fit. 0 keeps the paper's unbudgeted upload.
//
// With -serve-classify the site keeps running after the round and labels
// new points online against the received global model (the paper's "new
// objects are inserted by classifying them against the representatives");
// -metrics-addr exposes Prometheus metrics for that front end. See
// docs/serving.md.
//
// With -stream the site runs the always-on streaming mode instead of one
// round: the input CSV is ingested in row order as a point stream over a
// sliding window (-window), the local clustering is maintained with
// incremental DBSCAN, and a model delta is uploaded whenever the clustering
// changed considerably (-stream-threshold). Pair it with a dbdc-server
// running -stream. See docs/streaming.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	lib "github.com/dbdc-go/dbdc"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/serve"
	"github.com/dbdc-go/dbdc/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "server address")
	id := flag.String("id", "", "site id (required)")
	input := flag.String("input", "", "local CSV of points (required)")
	eps := flag.Float64("eps", 0, "DBSCAN Eps_local (required)")
	minPts := flag.Int("minpts", 0, "DBSCAN MinPts (required)")
	modelKind := flag.String("model", string(lib.RepScor), "local model: rep-scor or rep-kmeans")
	workers := flag.Int("workers", 1, "intra-site DBSCAN workers: >1 splits the range queries over that many goroutines against the site's one index, 0 = GOMAXPROCS-sized")
	repBudget := flag.Int("rep-budget", 0, "max representatives shipped per local cluster (SDBDC budget; 0 = unbudgeted)")
	out := flag.String("o", "", "output file for global labels (default stdout)")
	timeout := flag.Duration("timeout", 30*time.Second, "I/O timeout")
	retries := flag.Int("retries", 3, "max upload attempts on transient failures (1 = no retry)")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "base backoff delay between attempts")
	retryMax := flag.Duration("retry-max", 2*time.Second, "backoff delay cap")
	serveQueries := flag.String("serve-queries", "", "after the round, serve cluster-membership queries on this address (e.g. :7071) until killed")
	serveClassify := flag.String("serve-classify", "", "after the round, classify new points against the received global model on this address (e.g. :7072) until killed")
	classifyIndex := flag.String("classify-index", string(index.KindKDTree), "spatial index the local classifier bulk-loads the representatives into")
	metricsAddr := flag.String("metrics-addr", "", "expose Prometheus classification metrics over HTTP on this address (needs -serve-classify)")
	streamMode := flag.Bool("stream", false, "ingest the input as a point stream over a sliding window and upload model updates continuously (see docs/streaming.md)")
	window := flag.Int("window", 1000, "with -stream: sliding-window size in points")
	streamThreshold := flag.Float64("stream-threshold", 0.15, "with -stream: clustering-change level (1 − P^II) above which the site uploads")
	streamCheck := flag.Int("stream-check", 64, "with -stream: ingested points between change checks")
	flag.Parse()

	if *id == "" || *input == "" || *eps <= 0 || *minPts < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// Reject unknown model kinds at flag-parse time: historically the raw
	// string went into the config unvalidated and the site failed only
	// mid-round, after clustering had already run.
	kind := lib.ModelKind(*modelKind)
	if kind != lib.RepScor && kind != lib.RepKMeans {
		fmt.Fprintf(os.Stderr, "dbdc-site: unknown -model %q (want %q or %q)\n",
			*modelKind, lib.RepScor, lib.RepKMeans)
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "dbdc-site: negative -workers %d\n", *workers)
		flag.Usage()
		os.Exit(2)
	}
	if *repBudget < 0 {
		fmt.Fprintf(os.Stderr, "dbdc-site: negative -rep-budget %d\n", *repBudget)
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*input)
	if err != nil {
		fatal(err)
	}
	pts, err := data.ReadCSV(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	siteWorkers := *workers
	if siteWorkers == 0 {
		siteWorkers = runtime.GOMAXPROCS(0)
	}
	cfg := lib.Config{
		Local:       lib.Params{Eps: *eps, MinPts: *minPts},
		Model:       kind,
		SiteWorkers: siteWorkers,
		RepBudget:   *repBudget,
	}
	if *streamMode {
		runStreamSite(*id, *addr, pts, cfg, *window, *streamThreshold, *streamCheck, *timeout)
		return
	}
	client := &lib.TransportClient{
		Addr:    *addr,
		Timeout: *timeout,
		Retry: lib.RetryPolicy{
			MaxAttempts: *retries,
			BaseDelay:   *retryBase,
			MaxDelay:    *retryMax,
			Jitter:      0.2,
		},
		OnRetry: func(attempt int, err error, delay time.Duration) {
			fmt.Fprintf(os.Stderr, "dbdc-site %s: attempt %d failed (%v), retrying in %s\n",
				*id, attempt, err, delay.Round(time.Millisecond))
		},
	}
	report, err := lib.RunSiteClient(client, *id, pts, cfg)
	if err != nil {
		fatal(err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	for _, id := range report.Labels {
		fmt.Fprintln(w, id)
	}
	fmt.Fprintf(os.Stderr,
		"dbdc-site %s: %d points, %d global clusters visible, %d former noise adopted, sent %dB, received %dB, %d attempt(s)\n",
		*id, len(pts), report.Global.NumClusters, report.Stats.NoiseAdopted,
		report.BytesSent, report.BytesReceived, report.Attempts)
	fmt.Fprintf(os.Stderr, "dbdc-site %s: phases: %s\n", *id, report.Phases.String())
	if *repBudget > 0 {
		neg := report.Negotiation
		capStr := "none"
		if neg.Acked {
			capStr = fmt.Sprintf("%dB", neg.MaxUploadBytes)
			if neg.MaxUploadBytes == 0 {
				capStr = "unlimited"
			}
		}
		fmt.Fprintf(os.Stderr,
			"dbdc-site %s: budget: configured=%d shipped=%d dropped=%d coverage=%.3f server-cap=%s\n",
			*id, *repBudget, neg.Budget, neg.Stats.Dropped(), neg.Stats.CoverageFraction(), capStr)
	}
	// Online classification against the freshly received global model: the
	// site publishes it into a local registry and answers MsgClassify
	// frames until killed. A future round (re-running the site) would
	// publish version 2 and hot-swap under live traffic.
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
			fmt.Fprintf(os.Stderr, "dbdc-site: unknown -classify-index %q (want one of %v)\n", *classifyIndex, index.Kinds())
			os.Exit(2)
		}
		registry := serve.NewRegistry(ik)
		metrics := serve.NewMetrics(registry)
		if _, err := registry.Publish(report.Global); err != nil {
			fatal(err)
		}
		cs, err := serve.NewServer(*serveClassify, serve.ServerConfig{
			Registry: registry,
			Metrics:  metrics,
			Timeout:  *timeout,
		})
		if err != nil {
			fatal(err)
		}
		defer cs.Close()
		classifyDone = make(chan error, 1)
		go func() { classifyDone <- cs.Serve() }()
		fmt.Fprintf(os.Stderr, "dbdc-site %s: serving classification on %s (index %s)\n", *id, cs.Addr(), ik)
		if *metricsAddr != "" {
			closeFn, bound, err := metrics.ListenAndServe(*metricsAddr)
			if err != nil {
				fatal(err)
			}
			defer closeFn()
			fmt.Fprintf(os.Stderr, "dbdc-site %s: metrics on http://%s/metrics\n", *id, bound)
		}
	} else if *metricsAddr != "" {
		fmt.Fprintln(os.Stderr, "dbdc-site: -metrics-addr needs -serve-classify")
		os.Exit(2)
	}
	if *serveQueries != "" {
		qs, err := transport.NewSiteQueryServer(*serveQueries, pts, report.Labels, *timeout)
		if err != nil {
			fatal(err)
		}
		defer qs.Close()
		fmt.Fprintf(os.Stderr, "dbdc-site %s: serving cluster queries on %s\n", *id, qs.Addr())
		if err := qs.Serve(0); err != nil {
			fatal(err)
		}
	}
	if classifyDone != nil {
		if err := <-classifyDone; err != nil {
			fatal(err)
		}
	}
}

// runStreamSite is the -stream mode: the CSV rows become a point stream
// ingested over a sliding window, with model updates uploaded whenever the
// clustering changed considerably; a final flush ships the closing state.
func runStreamSite(id, addr string, pts []lib.Point, cfg lib.Config, window int, threshold float64, checkEvery int, timeout time.Duration) {
	site, err := lib.NewStreamSite(lib.StreamConfig{
		SiteID:     id,
		Cluster:    cfg,
		Window:     window,
		Threshold:  threshold,
		CheckEvery: checkEvery,
	}, &lib.StreamClient{Addr: addr, Timeout: timeout})
	if err != nil {
		fatal(err)
	}
	for i, p := range pts {
		if err := site.Ingest(p); err != nil {
			fmt.Fprintf(os.Stderr, "dbdc-site %s: point %d: %v (continuing)\n", id, i, err)
		}
	}
	if err := site.Flush(); err != nil {
		fatal(err)
	}
	st := site.Stats()
	fmt.Fprintf(os.Stderr,
		"dbdc-site %s: streamed %d points (window %d, %d turns), %d uploads (%d deltas, %d resyncs), sent %dB, received %dB\n",
		id, st.Ingested, window, st.Turns, st.Uploads, st.DeltaUploads, st.Resyncs,
		st.BytesSent, st.BytesReceived)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dbdc-site: %v\n", err)
	os.Exit(1)
}
