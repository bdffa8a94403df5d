package dbdc

import (
	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
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
// The choice rule itself lives in RepSelector and is shared with RelabelSite
// and the online classifier of internal/serve: classifying a training point
// at serving time is, by construction, identical to relabeling it here.
//
// The empty global model (the all-noise sentinel of GlobalStep,
// model.GlobalModel.Empty) is handled explicitly: every object stays noise
// and no error is raised. A structurally broken global model — e.g.
// representatives of mixed dimensionality — returns an error instead of a
// silent all-noise labeling.
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
	// Representatives have individual radii; the selector answers each
	// object from its coverage grid over the representatives' ε_r-boxes.
	sel, err := NewRepSelector(global)
	if err != nil {
		// A broken model is an error, never an all-noise labeling: that
		// would be indistinguishable from "no object is covered".
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

// RelabelSite relabels the site's objects — Relabel(outcome.Points, global)
// — and derives the change statistics.
func RelabelSite(outcome *LocalOutcome, global *model.GlobalModel) (cluster.Labeling, RelabelStats, error) {
	var stats RelabelStats
	labels, err := Relabel(outcome.Points, global)
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
