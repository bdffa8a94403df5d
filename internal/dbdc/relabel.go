package dbdc

import (
	"math"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
)

// Relabel performs step 4 of DBDC on one site: every local object o that
// lies within the ε_r-range of a representative r of the global model is
// assigned r's global cluster id (Section 7). When several representatives
// cover o, the nearest one wins (exact ties break toward the lowest
// representative index), which makes the relabeling deterministic. Objects
// covered by no representative stay noise. Through this rule two formerly
// independent local clusters merge when their representatives share a
// global cluster, and former local noise joins global clusters it is close
// enough to — including clusters discovered only on other sites.
//
// The choice rule itself lives in RepSelector and is shared with the
// online classifier of internal/serve: classifying a training point at
// serving time is, by construction, identical to relabeling it here.
//
// The empty global model (the all-noise sentinel of GlobalStep,
// model.GlobalModel.Empty) is handled explicitly: every object stays noise
// and no error is raised. A structurally broken global model — e.g.
// representatives of mixed dimensionality, which defeats the kd-tree over
// the representative points — returns an error instead of a silent
// all-noise labeling.
func Relabel(pts []geom.Point, global *model.GlobalModel) (cluster.Labeling, error) {
	labels := cluster.NewLabeling(len(pts))
	for i := range labels {
		labels[i] = cluster.Noise
	}
	if global.Empty() || len(pts) == 0 {
		// All-noise sentinel (or nothing to label): noise labeling is the
		// correct outcome, not a degraded fallback.
		return labels, nil
	}
	// Representatives have individual radii; the selector queries a
	// kd-tree over the representative points with the maximum radius, then
	// verifies each candidate's own ε_r. The representative count is
	// small, so the tree is cheap to build and each query local.
	sel, err := NewRepSelector(global, index.KindKDTree)
	if err != nil {
		// Historically a kd-tree build failure was swallowed and Relabel
		// returned an all-noise labeling, making a corrupt global model
		// indistinguishable from "no object is covered". Server-side
		// validation normally rejects such models, but a library caller
		// can hand Relabel anything.
		return nil, err
	}
	var sc RepScratch
	for i, p := range pts {
		labels[i] = sel.SelectInto(p, &sc)
	}
	return labels, nil
}

// RelabelStats reports how a site's own clustering changed under the global
// model: how many local clusters were merged into larger global ones and how
// many former noise objects joined a cluster. The counts drive the "transmit
// a new local model only when the clustering changed considerably" policy of
// incremental DBDC.
type RelabelStats struct {
	// NoiseAdopted counts local noise objects that joined a global cluster.
	NoiseAdopted int
	// LocalClustersMerged counts local clusters that share their global
	// cluster with at least one other local cluster of the same site.
	LocalClustersMerged int
}

// RelabelSite relabels the site's objects and derives the change
// statistics. The labels are those of Relabel(outcome.Points, global), object
// for object and error for error (TestRelabelSiteMatchesPerPoint); an outcome
// that retained its site index gets them by relabelByRep.
func RelabelSite(outcome *LocalOutcome, global *model.GlobalModel) (cluster.Labeling, RelabelStats, error) {
	var stats RelabelStats
	labels, err := relabelOutcome(outcome, global)
	if err != nil {
		return nil, stats, err
	}
	for i := range labels {
		if outcome.Clustering.Labels[i] == cluster.Noise && labels[i] != cluster.Noise {
			stats.NoiseAdopted++
		}
	}
	// Count local clusters whose global id is shared with another local
	// cluster. The mapping goes through this site's representatives.
	globalOf := make(map[cluster.ID]map[cluster.ID]bool) // global -> set of local
	for _, r := range global.Reps {
		if r.SiteID != outcome.SiteID {
			continue
		}
		if globalOf[r.GlobalCluster] == nil {
			globalOf[r.GlobalCluster] = make(map[cluster.ID]bool)
		}
		globalOf[r.GlobalCluster][r.LocalCluster] = true
	}
	for _, locals := range globalOf {
		if len(locals) > 1 {
			stats.LocalClustersMerged += len(locals)
		}
	}
	return labels, stats, nil
}

// relabelOutcome picks the relabeling path: by representative over the
// retained site index when that provably reproduces the per-point rule, the
// per-point Relabel otherwise — no retained store-backed index (a condensed
// outcome), nothing to label, the empty model, representatives of another
// dimensionality than the site's objects, or an ε_r that is not a positive
// finite number (model.GlobalModel.Validate refuses most of those, but a
// library caller can hand in anything, and a range query at such a radius is
// not the per-point filter d² ≤ ε_r²).
func relabelOutcome(o *LocalOutcome, global *model.GlobalModel) (cluster.Labeling, error) {
	st := index.StoreOf(o.idx)
	if st == nil || st.Len() == 0 || global.Empty() {
		return Relabel(o.Points, global)
	}
	dim, err := repDim(global)
	if err != nil {
		return nil, err
	}
	if dim != st.Dim() {
		return Relabel(o.Points, global)
	}
	for _, r := range global.Reps {
		if !(r.Eps > 0 && r.Eps <= math.MaxFloat64) {
			return Relabel(o.Points, global)
		}
	}
	return relabelByRep(o.idx, st, global), nil
}

// relabelByRep is the Section 7 rule of RepSelector turned around: instead of
// one descent per site object over the representatives at max ε_r, one range
// query per representative over the site's objects at its own ε_r — a few
// hundred descents for tens of thousands of objects, and no over-fetch when
// budgets widen the spread of the ε_r. The pairs (o, r) with d² ≤ ε_r² are the
// same, their distances come from the same strided kernel (squared distances
// are bitwise symmetric in their operands), and folding the per-object
// minimum with a strict < while the representatives go by in Reps order is
// "nearest wins, ties to the lowest representative index".
func relabelByRep(idx index.Index, st *geom.Store, global *model.GlobalModel) cluster.Labeling {
	n := st.Len()
	labels := cluster.NewLabeling(n)
	bestSq := make([]float64, n)
	for i := range labels {
		labels[i] = cluster.Noise
		bestSq[i] = math.Inf(1)
	}
	var ids []int
	var dist []float64
	for _, r := range global.Reps {
		ids = index.RangeInto(idx, r.Point, r.Eps, ids)
		if cap(dist) < len(ids) {
			dist = make([]float64, 2*len(ids))
		}
		for k, d2 := range st.DistanceSqBatch(r.Point, ids, dist[:len(ids)]) {
			if o := ids[k]; d2 < bestSq[o] {
				bestSq[o], labels[o] = d2, r.GlobalCluster
			}
		}
	}
	return labels
}
