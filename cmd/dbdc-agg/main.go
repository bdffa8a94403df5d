// Command dbdc-agg runs one interior node of a DBDC aggregation tree
// (docs/hierarchy.md): toward its children it is a quorum round server
// exactly like dbdc-server, toward -parent it behaves like a site. Each
// round it collects its region's models, merges them (regional global
// step), condenses the merged result back into a site-shaped local model
// — optionally capped by -rep-budget — uploads it to the parent with an
// aggregation-provenance section attached, and broadcasts the parent's
// reply (the root's global model) to its children. Sites and deeper
// aggregators connect to it with the unchanged wire protocol.
//
// Usage:
//
//	dbdc-agg -addr :7171 -id agg-west -parent 127.0.0.1:7070 \
//	    -expect 3 -eps 1.2 -minpts 4 [-quorum 2] [-rep-budget 8] \
//	    [-accept-timeout 30s] [-expect-sites site-1,site-2,site-3]
//
// A round completes as soon as all expected children delivered a model,
// or at the accept deadline with at least -quorum usable models. If the
// parent is unreachable or rejects the upload, the round fails and every
// child receives the error — a subtree never fabricates a global model.
// With -report-json the round reports (including the condense-and-forward
// duration) are written as JSON, failed children included.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	lib "github.com/dbdc-go/dbdc"
	"github.com/dbdc-go/dbdc/internal/aggtree"
	"github.com/dbdc-go/dbdc/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7171", "child-facing listen address")
	id := flag.String("id", "agg", "this aggregator's site id on the parent's wire")
	parent := flag.String("parent", "", "upstream server address (required): the root dbdc-server or a higher-level dbdc-agg")
	expect := flag.Int("expect", 2, "number of distinct child models per round")
	eps := flag.Float64("eps", 0, "Eps_local the sites use (required; validates models)")
	minPts := flag.Int("minpts", 0, "MinPts the sites use (required)")
	epsGlobal := flag.Float64("epsglobal", 0, "regional Eps_global; 0 = paper default (max specific ε-range, propagated upward via the condensed model)")
	repBudget := flag.Int("rep-budget", 0, "cap on representatives per regional cluster in the condensed upload; 0 = forward every representative (lossless)")
	rounds := flag.Int("rounds", 1, "number of tree rounds to serve before exiting")
	timeout := flag.Duration("timeout", 30*time.Second, "per-connection I/O timeout (children and parent)")
	quorum := flag.Int("quorum", 0, "minimum usable child models per round; 0 = proceed with any")
	acceptTimeout := flag.Duration("accept-timeout", 0, "accept-phase deadline per round; 0 = -timeout")
	expectSites := flag.String("expect-sites", "", "comma-separated child ids for per-name failure reporting")
	maxUploadBytes := flag.Int64("max-upload-bytes", 0, "byte cap on every frame a child uploads, advertised to budget-handshaking children (0 = no cap)")
	reportJSON := flag.String("report-json", "", "write every round's report as a JSON array to this file (\"-\" = stdout)")
	flag.Parse()

	if *eps <= 0 || *minPts < 1 || *parent == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg := aggtree.Config{
		ID:     *id,
		Parent: *parent,
		Expect: *expect,
		Quorum: *quorum,
		Cluster: lib.Config{
			Local:     lib.Params{Eps: *eps, MinPts: *minPts},
			EpsGlobal: *epsGlobal,
			RepBudget: *repBudget,
		},
		MaxUploadBytes: *maxUploadBytes,
		Timeout:        *timeout,
		AcceptTimeout:  *acceptTimeout,
	}
	if *expectSites != "" {
		for _, cid := range strings.Split(*expectSites, ",") {
			if cid = strings.TrimSpace(cid); cid != "" {
				cfg.ExpectedSites = append(cfg.ExpectedSites, cid)
			}
		}
	}
	agg, err := aggtree.New(*addr, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbdc-agg: %v\n", err)
		os.Exit(1)
	}
	defer agg.Close()

	fmt.Fprintf(os.Stderr, "dbdc-agg: %s listening on %s for %d children (quorum %d), parent %s\n",
		*id, agg.Addr(), *expect, *quorum, *parent)
	// Like dbdc-server, the JSON report holds one element per round and is
	// rewritten whole after every round, so a killed aggregator still leaves
	// the completed rounds on disk; stdout gets it after the last or a
	// failed round.
	var jsonReports []*transport.RoundReport
	for round := 1; round <= *rounds; round++ {
		global, report, err := agg.RunRound()
		if report != nil {
			fmt.Fprintf(os.Stderr, "dbdc-agg: %s %s\n", *id, report)
			if *reportJSON != "" {
				jsonReports = append(jsonReports, report)
				if *reportJSON != "-" || round == *rounds || err != nil {
					if werr := transport.WriteReports(*reportJSON, jsonReports); werr != nil {
						fmt.Fprintf(os.Stderr, "dbdc-agg: writing %s: %v\n", *reportJSON, werr)
						os.Exit(1)
					}
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbdc-agg: round %d failed: %v\n", round, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr,
			"dbdc-agg: round %d: level %d, root model %d representatives in %d clusters (Eps_global=%g), forward %s\n",
			round, agg.Level(), len(global.Reps), global.NumClusters, global.EpsGlobal,
			report.ForwardDuration.Round(time.Millisecond))
	}
}
