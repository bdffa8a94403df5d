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
// that retained its site index gets them from it (relabelOutcome).
func RelabelSite(outcome *LocalOutcome, global *model.GlobalModel) (cluster.Labeling, RelabelStats, error) {
	var stats RelabelStats
	labels, _, err := relabelOutcome(outcome, global)
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

// relabelOutcome picks the relabeling path and reports the object–
// representative distances it evaluated (0: not counted). The per-point Relabel
// serves what the other two do not provably reproduce it on: no retained
// store-backed index (a condensed outcome), nothing to label, the empty model,
// representatives of another dimensionality than the site's objects, or an
// ε_r that is not a positive finite number (model.GlobalModel.Validate refuses
// most of those, but a library caller can hand in anything, and a range query
// at such a radius is not the per-point filter d² ≤ ε_r²). Otherwise an index
// with leaves on offer — a bulk-loaded R*-tree of more than one — is resolved
// leaf by leaf (relabelByLeaf), and every other kind and tree by one range
// query per representative (relabelByRep).
func relabelOutcome(o *LocalOutcome, global *model.GlobalModel) (cluster.Labeling, int, error) {
	st := index.StoreOf(o.idx)
	byIndex := st != nil && st.Len() > 0 && !global.Empty()
	if byIndex {
		dim, err := repDim(global)
		if err != nil {
			return nil, 0, err
		}
		byIndex = dim == st.Dim()
		for _, r := range global.Reps {
			byIndex = byIndex && r.Eps > 0 && r.Eps <= math.MaxFloat64
		}
	}
	if !byIndex {
		labels, err := Relabel(o.Points, global)
		return labels, 0, err
	}
	labels := cluster.NewLabeling(st.Len())
	for i := range labels {
		labels[i] = cluster.Noise
	}
	if _, leaves := index.LeavesOf(o.idx); leaves > 0 {
		return labels, relabelByLeaf(o.idx.(index.UnseenRangeAppender), leaves, st, global.Reps, labels), nil
	}
	return labels, relabelByRep(o.idx, st, global.Reps, labels), nil
}

// relabelByLeaf is relabelByRep with the (representative, leaf) pairs its range
// queries enter — same descent — resolved leaf by leaf, not object by object;
// a counting sort buckets them by leaf, in Reps order within a leaf. A leaf in
// reach of one global cluster asks only whether an object is covered: each
// representative is asked about the objects no earlier one covered, until none
// is left. A leaf in reach of several folds nearest-wins over all of them as
// relabelByRep does; d² ≤ ε_r² on the batch kernel is its verifier's filter.
func relabelByLeaf(lv index.UnseenRangeAppender, leaves int, st *geom.Store, reps []model.GlobalRepresentative, labels cluster.Labeling) (evals int) {
	pairs := make([]int, 0, 16*len(reps)) // a guess: a round-bulk site's tree gives 13 each
	repEnd := make([]int, len(reps))
	for i, r := range reps {
		pairs = lv.LeavesInReach(r.Point, r.Eps, pairs)
		repEnd[i] = len(pairs)
	}
	next := make([]int32, leaves+1) // where leaf l's next representative goes
	for _, l := range pairs {
		next[l+1]++
	}
	for l := 1; l < leaves; l++ {
		next[l+1] += next[l]
	}
	byLeaf := make([]int32, len(pairs))
	for i, k := 0, 0; i < len(reps); i++ {
		for ; k < repEnd[i]; k++ {
			byLeaf[next[pairs[k]]] = int32(i)
			next[pairs[k]]++
		}
	}
	var pending []int
	var dist, best []float64
	for l, begin := 0, int32(0); l < leaves; l, begin = l+1, next[l] {
		in, ids := byLeaf[begin:next[l]], lv.Leaf(l)
		if cap(dist) < len(ids) {
			dist = make([]float64, len(ids))
		}
		several := false
		for _, ri := range in {
			several = several || reps[ri].GlobalCluster != reps[in[0]].GlobalCluster
		}
		if best = best[:0]; several {
			for range ids {
				best = append(best, math.Inf(1))
			}
			for _, ri := range in {
				r := &reps[ri]
				evals += len(ids)
				for k, d2 := range st.DistanceSqBatch(r.Point, ids, dist[:len(ids)]) {
					if d2 <= r.Eps*r.Eps && d2 < best[k] {
						best[k], labels[ids[k]] = d2, r.GlobalCluster
					}
				}
			}
			continue
		}
		pending = append(pending[:0], ids...)
		for i := 0; i < len(in) && len(pending) > 0; i++ {
			r, open := &reps[in[i]], pending[:0]
			evals += len(pending)
			for k, d2 := range st.DistanceSqBatch(r.Point, pending, dist[:len(pending)]) {
				if d2 <= r.Eps*r.Eps {
					labels[pending[k]] = r.GlobalCluster
				} else {
					open = append(open, pending[k])
				}
			}
			pending = open
		}
	}
	return evals
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
func relabelByRep(idx index.Index, st *geom.Store, reps []model.GlobalRepresentative, labels cluster.Labeling) (evals int) {
	bestSq := make([]float64, len(labels))
	for i := range bestSq {
		bestSq[i] = math.Inf(1)
	}
	var ids []int
	var dist []float64
	for _, r := range reps {
		ids = index.RangeInto(idx, r.Point, r.Eps, ids)
		evals += len(ids)
		if cap(dist) < len(ids) {
			dist = make([]float64, 2*len(ids))
		}
		for k, d2 := range st.DistanceSqBatch(r.Point, ids, dist[:len(ids)]) {
			if o := ids[k]; d2 < bestSq[o] {
				bestSq[o], labels[o] = d2, r.GlobalCluster
			}
		}
	}
	return evals
}
