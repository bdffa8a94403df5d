// Package dbdc implements Density Based Distributed Clustering (Januzaj,
// Kriegel, Pfeifle — EDBT 2004): the paper's primary contribution. It wires
// the four steps of Figure 2 together:
//
//  1. local clustering (DBSCAN on each site),
//  2. determination of a local model (REP_Scor or REP_kMeans),
//  3. determination of a global model (DBSCAN over all representatives
//     with MinPts_global = 2 and a tunable Eps_global), and
//  4. updating of the local clusterings from the global model.
//
// The steps are exposed individually (LocalStep, GlobalStep, Relabel) so a
// real deployment can run them on different machines via the transport
// package, and as a concurrent single-process orchestrator (Run) used by
// the experiments.
package dbdc

import (
	"fmt"
	"math"

	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/model"
)

// DefaultMinPtsGlobal is the server-side MinPts. Every representative
// stands for a whole cluster region, so two density-connected
// representatives suffice to merge (Section 6).
const DefaultMinPtsGlobal = 2

// Config collects all DBDC parameters.
type Config struct {
	// Local holds the site-side DBSCAN parameters Eps_local and MinPts.
	Local dbscan.Params
	// Model selects the local model construction, REP_Scor by default.
	Model model.Kind
	// EpsGlobal is the server-side clustering radius. Zero selects the
	// paper's default: the maximum specific ε-range over all received
	// representatives (generally close to 2·Eps_local).
	EpsGlobal float64
	// EpsGlobalAuto derives Eps_global from the data instead of a rule of
	// thumb: the server computes the OPTICS ordering of the representatives
	// and cuts at the widest density gap (Section 6 discusses OPTICS as the
	// tool for exactly this choice). Overrides EpsGlobal when set. Useful
	// when the 2·Eps_local heuristic under- or over-connects, e.g. in
	// higher-dimensional spaces.
	EpsGlobalAuto bool
	// MinPtsGlobal is the server-side MinPts; zero selects
	// DefaultMinPtsGlobal.
	MinPtsGlobal int
	// KMeansMaxIter bounds the k-means refinement of REP_kMeans; zero
	// selects the kmeans package default.
	KMeansMaxIter int
	// Sequential makes the orchestrator execute the site-side steps one
	// site at a time instead of concurrently. This is the measurement
	// methodology of the paper ("we carried out all local clusterings
	// sequentially ... the overall runtime was formed by adding the time
	// needed for the global clustering to the maximum time needed for the
	// local clusterings"): per-site durations stay uncontended, so
	// max(local) + global faithfully models sites running on separate
	// machines even when the experiment host has few cores.
	Sequential bool
	// RepBudget caps the number of representatives a site ships per local
	// cluster (the SDBDC follow-up, PKDD 2004): at most RepBudget specific
	// cores per cluster, greedily selected to maximize the fraction of
	// cluster members still covered by the transmitted model
	// (dbscan.BudgetScor). 0 keeps the paper's unbudgeted local model —
	// byte-identical on the wire to a build without the knob. For
	// REP_kMeans the budget bounds the seed set, so k = min(RepBudget,
	// |Scor_C|) centroids are shipped per cluster.
	RepBudget int
	// SiteWorkers is the per-site worker budget for the local DBSCAN runs
	// (dbscan.Options.Workers): values above 1 run a site's DBSCAN on that
	// many goroutines, so one large site no longer bottlenecks a round on a
	// single core. Each worker owns a contiguous range of the site's objects
	// and issues their ε-range queries against the site's one R*-tree. The
	// same budget drives the server-side merge clustering of GlobalStep (and
	// with it the aggtree interior nodes). The orchestrator divides the
	// process-wide parallelism budget (GOMAXPROCS) by SiteWorkers to size its
	// bounded site pool, keeping total goroutine fan-out roughly constant.
	// 0 or 1 runs each site's DBSCAN on one goroutine (the paper-faithful
	// default). The value changes how long a site takes, never the local
	// model it uploads.
	SiteWorkers int
}

// withDefaults returns a copy of c with defaults resolved.
func (c Config) withDefaults() Config {
	if c.Model == "" {
		c.Model = model.RepScor
	}
	if c.MinPtsGlobal == 0 {
		c.MinPtsGlobal = DefaultMinPtsGlobal
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Local.Validate(); err != nil {
		return err
	}
	c = c.withDefaults()
	if c.Model != model.RepScor && c.Model != model.RepKMeans {
		return fmt.Errorf("dbdc: unknown local model kind %q", c.Model)
	}
	if !(c.EpsGlobal >= 0) || math.IsInf(c.EpsGlobal, 1) {
		return fmt.Errorf("dbdc: EpsGlobal must be zero (the default) or positive and finite, got %v", c.EpsGlobal)
	}
	if c.MinPtsGlobal < 1 {
		return fmt.Errorf("dbdc: MinPtsGlobal %d < 1", c.MinPtsGlobal)
	}
	if c.SiteWorkers < 0 {
		return fmt.Errorf("dbdc: negative SiteWorkers %d", c.SiteWorkers)
	}
	if c.RepBudget < 0 {
		return fmt.Errorf("dbdc: negative RepBudget %d", c.RepBudget)
	}
	return nil
}
