package dbdc

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

// CondenseGlobal turns a regional global model back into a site-shaped
// local model — the interior-node step of the hierarchical aggregation tree
// (docs/hierarchy.md). A leaf aggregator runs GlobalStep over its region's
// site models, then condenses the merged result with this function and
// uploads it to its parent exactly like a site would: every global
// representative becomes a local-model representative whose LocalCluster is
// its regional global cluster id, so the regional clustering rides upward
// in-band (stable cluster-id provenance) and the parent needs zero new
// frame types on the wire.
//
// Eps propagation across levels: the condensed model's EpsLocal is the
// regional EpsGlobal, so a parent that derives its own Eps_global from the
// maximum specific ε-range (the paper's default) sees radii consistent with
// what the region actually merged at. The representatives keep their
// original specific ε-ranges untouched — with an unbudgeted condensation
// the parent therefore clusters the exact union of the region's site
// representatives, which is what makes a 2-level tree over the same site
// partition equivalent to the flat run up to cluster-id renaming.
//
// The all-noise region (g.Empty(): EpsGlobal 0, no representatives) is
// condensed into a valid, representative-free local model whose EpsLocal
// falls back to cfg.Local.Eps — the sentinel's zero radius must not leak
// into a field Validate requires positive. The parent's GlobalStep skips
// representative-free models, so an all-noise region degrades the tree
// round instead of erroring it.
//
// cfg.RepBudget > 0 caps the condensed model through the established
// dbscan.RankScor path (greedy coverage-maximizing ranking of the
// regional clusters), and the returned outcome supports BudgetedModel
// re-derivation, so each tree level can negotiate its own uplink cap with
// its parent exactly like a budgeted site does.
func CondenseGlobal(siteID string, g *model.GlobalModel, cfg Config) (*LocalOutcome, error) {
	if siteID == "" {
		return nil, fmt.Errorf("dbdc: condensing without an aggregator id")
	}
	if g == nil {
		return nil, fmt.Errorf("dbdc: condensing a nil global model")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dbdc: condensing invalid global model: %w", err)
	}
	cfg = cfg.withDefaults()
	// Condensed models are always REP_Scor-shaped: the "objects" are the
	// region's representatives themselves, already condensed once at the
	// site level; re-refining them with k-means would move points that are
	// the provenance anchors of the regional clusters.
	cfg.Model = model.RepScor
	if !g.Empty() {
		// Eps propagation: the level below merged at EpsGlobal, so that is
		// this model's "local" radius on the parent's wire.
		cfg.Local = dbscan.Params{Eps: g.EpsGlobal, MinPts: g.MinPtsGlobal}
	}

	pts := make([]geom.Point, len(g.Reps))
	res := &dbscan.Result{
		Params:      cfg.Local,
		Labels:      cluster.NewLabeling(len(g.Reps)),
		Core:        make([]bool, len(g.Reps)),
		Scor:        make(map[cluster.ID][]int),
		SpecificEps: make(map[int]float64, len(g.Reps)),
	}
	for i, r := range g.Reps {
		pts[i] = r.Point
		// Every representative is a specific core of its regional cluster:
		// it was selected as (or refined from) a specific core one level
		// down, and its ε-range is exactly the area it answers for.
		res.Labels[i] = r.GlobalCluster
		res.Core[i] = true
		res.Scor[r.GlobalCluster] = append(res.Scor[r.GlobalCluster], i)
		res.SpecificEps[i] = r.Eps
	}

	st, err := storeOf(siteID, pts)
	if err != nil {
		return nil, err
	}
	// NumObjects counts representatives here, not the objects they stand
	// for: the aggregator does not see raw objects. Callers that know the
	// region's true cardinality (the transport round report sums the site
	// models' NumObjects) overwrite it for the compression statistics.
	return LocalStepClustered(siteID, st, res, cfg)
}

// SetNumObjects records the true object cardinality behind a condensed
// model (the sum of the region's site-model NumObjects), which the
// representative-fraction statistics report. The transmitted model is
// updated in place; a later BudgetedModel re-derivation keeps the value.
func (o *LocalOutcome) SetNumObjects(n int) {
	if n < 0 {
		return
	}
	o.numObjects = n
	if o.Model != nil {
		o.Model.NumObjects = n
	}
}
