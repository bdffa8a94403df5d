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
// With -report-json the round reports are additionally written as JSON,
// failed sites included. Pair it with dbdc-site processes pointing at the
// same address.
//
// Rounds and the streaming mode below are one collector under two
// triggers: each global step's cluster ids are matched against the
// previous one's (model.ClusterMatcher), so ids stay stable from round to
// round as from rebuild to rebuild, and the model a round publishes is the
// one it broadcasts. Of two uploads from one site, the one whose connection
// was accepted later is kept.
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
// uploading full models or streaming ones (docs/streaming.md); the
// global model is rebuilt on a debounced schedule (-debounce) and
// hot-swapped into the classification registry continuously. The process
// serves until killed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	lib "github.com/dbdc-go/dbdc"
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
	reportJSON := flag.String("report-json", "", "write every round's report as a JSON array to this file (\"-\" = stdout)")
	serveClassify := flag.String("serve-classify", "", "serve online classification on this address (e.g. :7072); every completed round hot-swaps the model, and the server keeps answering after the last round until killed")
	metricsAddr := flag.String("metrics-addr", "", "expose Prometheus metrics over HTTP on this address (e.g. :9090)")
	streamMode := flag.Bool("stream", false, "run the always-on streaming server (accepts full and delta uploads, rebuilds continuously) instead of synchronous rounds")
	debounce := flag.Duration("debounce", 100*time.Millisecond, "with -stream: coalesce streaming uploads arriving within this window into one global rebuild (0 = rebuild per upload)")
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
		runStreamServer(*addr, cfg, *timeout, *debounce, *maxUploadBytes, *serveClassify, *metricsAddr)
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
	publish, classifyDone := serve.StartFrontEnd("dbdc-server", "dbdc-server", *serveClassify, *metricsAddr, *timeout, nil)
	srv.SetOnGlobal(publish)
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
	// The JSON report holds one element per round and is rewritten whole
	// after every round, so a killed server still leaves the completed
	// rounds on disk; stdout gets it once, after the last or a failed round.
	var jsonReports []*transport.RoundReport
	for round := 1; round <= *rounds; round++ {
		global, report, err := srv.RunRoundOpts(opts)
		if report != nil {
			fmt.Fprintf(os.Stderr, "dbdc-server: %s\n", report)
			if *reportJSON != "" {
				jsonReports = append(jsonReports, report)
				if *reportJSON != "-" || round == *rounds || err != nil {
					if werr := transport.WriteReports(*reportJSON, jsonReports); werr != nil {
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
	if classifyDone != nil {
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
func runStreamServer(addr string, cfg lib.Config, timeout, debounce time.Duration, maxUploadBytes int64, serveClassify, metricsAddr string) {
	srv, err := lib.NewUpdateServer(addr, cfg, timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbdc-server: %v\n", err)
		os.Exit(1)
	}
	defer srv.Close()
	srv.SetDebounce(debounce)
	srv.SetMaxUploadBytes(maxUploadBytes)
	publish, classifyDone := serve.StartFrontEnd("dbdc-server", "dbdc-server", serveClassify, metricsAddr, timeout, nil)
	srv.SetOnGlobal(publish)

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
