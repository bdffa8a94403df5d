package dbdc

import (
	"fmt"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/kmeans"
	"github.com/dbdc-go/dbdc/internal/model"
)

// LocalTimings is the per-phase wall-clock breakdown of LocalStep: the
// DBSCAN clustering of the local objects (index build included — the index
// exists only to serve the clustering) and the condensation of the clusters
// into the representatives of the local model. The split is the site-side
// half of the paper's cost model (Section 8: distributed runtime ≈
// max(local) + global); the transport forwards it to the server so a round
// report can show where each site spent its time.
type LocalTimings struct {
	// Cluster is the cost of the local DBSCAN run (plus index build).
	Cluster time.Duration
	// Condense is the cost of representative condensation (REP_Scor
	// extraction or the k-means refinement of REP_kMeans).
	Condense time.Duration
	// Workers is the resolved intra-site worker count the clustering ran
	// with.
	Workers int
}

// LocalOutcome is everything a site derives from its own data: the DBSCAN
// clustering of the local objects and the local model shipped to the
// server.
//
// An outcome of LocalStep or LocalStepStore also keeps the index the
// clustering ran over alive for as long as the outcome lives, because
// RelabelSite works through it. For the default R*-tree over 16 000 2-d rows
// that is 0.25 MB (measured: the id permutation 128 KB, the leaf of every id
// 64 KB, the near-leaf table 29 KB, the level spans and bounds 21 KB), plus a
// 256 KB copy of the coordinates when LocalStep was handed a point slice;
// LocalStepStore shares the caller's store. The other kinds: linear nothing
// beyond the store it scans, grid 0.17 MB, kd-tree 0.26 MB, M-tree 2.1 MB.
type LocalOutcome struct {
	// SiteID identifies the site.
	SiteID string
	// Points are the site's objects (retained, not copied).
	Points []geom.Point
	// Clustering is the site-local DBSCAN result.
	Clustering *dbscan.Result
	// Model is the local model to transmit.
	Model *model.LocalModel
	// Timings is the per-phase cost breakdown of this LocalStep.
	Timings LocalTimings
	// RepBudget is the per-cluster representative budget the model was
	// built under (Config.RepBudget; 0 = unbudgeted), and Budget the
	// selector's coverage accounting. For an unbudgeted outcome Budget is
	// the zero value — no selection ran, nothing was dropped.
	RepBudget int
	Budget    dbscan.BudgetStats

	// idx is the index LocalStep clustered the site's objects over, kept so
	// that RelabelSite can go by its leaves or its range queries; nil for a
	// condensed outcome, which is relabeled object by object.
	idx index.Index
	// cfg is the resolved configuration the outcome was produced under,
	// retained so BudgetedModel can re-condense the clustering at a
	// different budget during transport negotiation.
	cfg Config
	// numObjects, when positive, overrides the model's NumObjects: a
	// condensed outcome (CondenseGlobal) clusters representatives, but the
	// compression statistics want the cardinality of the objects those
	// representatives stand for (SetNumObjects).
	numObjects int
}

// LocalStep performs steps 1 and 2 of DBDC on one site: cluster the local
// objects with DBSCAN and condense every cluster into representatives
// according to cfg.Model. Config.SiteWorkers is the DBSCAN run's worker
// count; the phase costs land in the outcome's Timings.
func LocalStep(siteID string, pts []geom.Point, cfg Config) (*LocalOutcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	clusterStart := time.Now()
	idx, err := index.Build(cfg.Index, pts, geom.Euclidean{}, cfg.Local.Eps)
	if err != nil {
		return nil, fmt.Errorf("dbdc: site %s: %w", siteID, err)
	}
	return localStepFrom(siteID, pts, idx, cfg, clusterStart)
}

// LocalStepStore is LocalStep for a site whose objects already live in a
// flat geom.Store (the layout the data loaders and generators produce). The
// index bulk-loads straight from the store's backing array — zero coordinate
// copies — and the outcome's Points are zero-copy views into the store.
func LocalStepStore(siteID string, st *geom.Store, cfg Config) (*LocalOutcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	clusterStart := time.Now()
	idx, err := index.BuildStore(cfg.Index, st, geom.Euclidean{}, cfg.Local.Eps)
	if err != nil {
		return nil, fmt.Errorf("dbdc: site %s: %w", siteID, err)
	}
	return localStepFrom(siteID, st.Views(), idx, cfg, clusterStart)
}

// localStepFrom is the shared tail of LocalStep and LocalStepStore: run the
// clustering over the prebuilt index and condense the result into the local
// model.
func localStepFrom(siteID string, pts []geom.Point, idx index.Index, cfg Config, clusterStart time.Time) (*LocalOutcome, error) {
	res, err := dbscan.Run(idx, cfg.Local, dbscan.Options{
		CollectSpecificCores: true,
		Workers:              cfg.SiteWorkers,
	})
	if err != nil {
		return nil, fmt.Errorf("dbdc: site %s: %w", siteID, err)
	}
	clusterDur := time.Since(clusterStart)
	out, err := LocalStepClustered(siteID, pts, res, cfg)
	if err != nil {
		return nil, err
	}
	out.idx = idx
	out.Timings.Cluster, out.Timings.Workers = clusterDur, max(cfg.SiteWorkers, 1)
	return out, nil
}

// LocalStepClustered is step 2 of DBDC over a finished clustering of pts —
// the Result of dbscan.Run or dbscan.FromCores, specific core points
// included — under a valid cfg: it condenses the clusters into the local
// model exactly as LocalStep does. The outcome has no index; RelabelSite
// goes object by object.
func LocalStepClustered(siteID string, pts []geom.Point, res *dbscan.Result, cfg Config) (*LocalOutcome, error) {
	cfg = cfg.withDefaults()
	condenseStart := time.Now()
	m, stats, err := buildLocalModel(siteID, pts, res, cfg, cfg.RepBudget)
	if err != nil {
		return nil, err
	}
	return &LocalOutcome{
		SiteID:     siteID,
		Points:     pts,
		Clustering: res,
		Model:      m,
		Timings:    LocalTimings{Condense: time.Since(condenseStart), Workers: 1},
		RepBudget:  cfg.RepBudget,
		Budget:     stats,
		cfg:        cfg,
	}, nil
}

// buildLocalModel condenses a clustering into the local model under the
// given per-cluster representative budget (0 = unbudgeted, the byte-exact
// historical output). The budgeted path never mutates res: the selector
// returns a fresh Scor map that a shallow result copy carries into the
// condensation.
func buildLocalModel(siteID string, pts []geom.Point, res *dbscan.Result, cfg Config, budget int) (*model.LocalModel, dbscan.BudgetStats, error) {
	var stats dbscan.BudgetStats
	condensed := res
	if budget > 0 {
		scor, s := dbscan.BudgetScor(pts, res, budget)
		stats = s
		b := *res
		b.Scor = scor
		condensed = &b
	}
	m := &model.LocalModel{
		SiteID:      siteID,
		Kind:        cfg.Model,
		EpsLocal:    cfg.Local.Eps,
		MinPts:      cfg.Local.MinPts,
		NumObjects:  len(pts),
		NumClusters: res.NumClusters(),
	}
	var err error
	switch cfg.Model {
	case model.RepScor:
		m.Reps = scorReps(pts, condensed)
	case model.RepKMeans:
		m.Reps, err = kmeansReps(pts, condensed, cfg.KMeansMaxIter)
		if err != nil {
			return nil, stats, fmt.Errorf("dbdc: site %s: %w", siteID, err)
		}
	}
	return m, stats, nil
}

// BudgetedModel re-condenses the outcome's clustering under a different
// per-cluster representative budget, without re-running DBSCAN. The
// transport layer uses it to shrink a site's upload until it fits a
// server-advertised byte cap; budget 0 rebuilds the unbudgeted model. The
// outcome itself (Model, Budget) is not modified.
func (o *LocalOutcome) BudgetedModel(budget int) (*model.LocalModel, dbscan.BudgetStats, error) {
	if budget < 0 {
		return nil, dbscan.BudgetStats{}, fmt.Errorf("dbdc: site %s: negative budget %d", o.SiteID, budget)
	}
	if budget == o.RepBudget && o.Model != nil {
		return o.Model, o.Budget, nil
	}
	m, stats, err := buildLocalModel(o.SiteID, o.Points, o.Clustering, o.cfg, budget)
	if err == nil && o.numObjects > 0 {
		m.NumObjects = o.numObjects
	}
	return m, stats, err
}

// MaxScorPerCluster returns the size of the largest unbudgeted specific
// core set over the outcome's clusters — the budget above which budgeting
// is the identity, and the natural upper bound of a shrink search.
func (o *LocalOutcome) MaxScorPerCluster() int {
	max := 0
	for _, scor := range o.Clustering.Scor {
		if len(scor) > max {
			max = len(scor)
		}
	}
	return max
}

// scorReps builds the REP_Scor local model (Section 5.1): the specific core
// points with their specific ε-ranges, both already computed during the
// DBSCAN run.
func scorReps(pts []geom.Point, res *dbscan.Result) []model.Representative {
	var reps []model.Representative
	for _, id := range sortedClusterIDs(res) {
		for _, s := range res.Scor[id] {
			reps = append(reps, model.Representative{
				Point:        pts[s].Clone(),
				Eps:          res.SpecificEps[s],
				LocalCluster: id,
			})
		}
	}
	return reps
}

// kmeansReps builds the REP_kMeans local model (Section 5.2): for every
// cluster C, k-means with k = |Scor_C| seeded by the specific core points
// refines the representatives to centroids; each centroid's ε-range is the
// maximum distance of its assigned objects.
func kmeansReps(pts []geom.Point, res *dbscan.Result, maxIter int) ([]model.Representative, error) {
	var reps []model.Representative
	for _, id := range sortedClusterIDs(res) {
		members := res.Labels.Members(id)
		memberPts := make([]geom.Point, len(members))
		for i, m := range members {
			memberPts[i] = pts[m]
		}
		seeds := make([]geom.Point, len(res.Scor[id]))
		for i, s := range res.Scor[id] {
			seeds[i] = pts[s]
		}
		km, err := kmeans.Lloyd(memberPts, seeds, maxIter)
		if err != nil {
			return nil, err
		}
		// ε_{c_ij} = max{dist(o, c_ij) | o ∈ O_ij} (Definition in 5.2).
		eps := make([]float64, len(km.Centroids))
		e := geom.Euclidean{}
		for i, p := range memberPts {
			c := km.Assign[i]
			if d := e.Distance(p, km.Centroids[c]); d > eps[c] {
				eps[c] = d
			}
		}
		for j, c := range km.Centroids {
			if eps[j] == 0 {
				// A centroid coinciding with its single assigned object
				// still represents that object; give it a minimal positive
				// validity area so the model stays well-formed.
				eps[j] = res.Params.Eps
			}
			reps = append(reps, model.Representative{
				Point:        c.Clone(),
				Eps:          eps[j],
				LocalCluster: id,
			})
		}
	}
	return reps, nil
}

func sortedClusterIDs(res *dbscan.Result) []cluster.ID {
	return res.Labels.ClusterIDs()
}
