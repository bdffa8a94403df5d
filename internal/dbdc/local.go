package dbdc

import (
	"fmt"
	"sort"
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
type LocalOutcome struct {
	// SiteID identifies the site.
	SiteID string
	// Points are the site's objects: views into the store the site was
	// clustered over (LocalStep copies the caller's points into one).
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

	// st and cfg are the store the clustering ran over and the resolved
	// configuration the outcome was produced under, and rank the ranking
	// of its specific cores (nil when unbudgeted), retained so
	// BudgetedModel can re-condense the clustering at a smaller budget
	// during transport negotiation.
	st   *geom.Store
	cfg  Config
	rank *dbscan.ScorRanking
	// numClusters is how many clusters the clustering has, numbered 0, 1, …
	// as Run and FromCores number them: every budget condenses the same ones.
	numClusters int
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
	st, err := storeOf(siteID, pts)
	if err != nil {
		return nil, err
	}
	return LocalStepStore(siteID, st, cfg)
}

// storeOf copies a site's points into one store; no points give an empty
// store of stride 1.
func storeOf(siteID string, pts []geom.Point) (*geom.Store, error) {
	if len(pts) == 0 {
		return geom.NewStore(1, 0), nil
	}
	st, err := geom.FromPoints(pts)
	if err != nil {
		return nil, fmt.Errorf("dbdc: site %s: %w", siteID, err)
	}
	return st, nil
}

// LocalStepStore is LocalStep for a site whose objects already live in a
// flat geom.Store (the layout the data loaders and generators produce). The
// index bulk-loads straight from the store's backing array — zero coordinate
// copies — and the outcome's Points are zero-copy views into the store. The
// index is dropped once the clustering is done.
func LocalStepStore(siteID string, st *geom.Store, cfg Config) (*LocalOutcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	clusterStart := time.Now()
	idx, err := index.BuildStore(index.KindRStar, st, geom.Euclidean{}, cfg.Local.Eps)
	if err != nil {
		return nil, fmt.Errorf("dbdc: site %s: %w", siteID, err)
	}
	res, err := dbscan.Run(idx, cfg.Local, dbscan.Options{
		CollectSpecificCores: true,
		Workers:              cfg.SiteWorkers,
	})
	if err != nil {
		return nil, fmt.Errorf("dbdc: site %s: %w", siteID, err)
	}
	clusterDur := time.Since(clusterStart)
	out, err := LocalStepClustered(siteID, st, res, cfg)
	if err != nil {
		return nil, err
	}
	out.Timings.Cluster, out.Timings.Workers = clusterDur, max(cfg.SiteWorkers, 1)
	return out, nil
}

// LocalStepClustered is step 2 of DBDC over a finished clustering of the
// store st — the Result of dbscan.Run or dbscan.FromCores, specific core
// points included — under a valid cfg: it condenses the clusters into the
// local model exactly as LocalStep does. The outcome retains st; its Points
// are views into it. A budgeted outcome ranks the specific cores once
// (dbscan.RankScor), and every budget BudgetedModel is asked for later is
// a prefix of that ranking; an unbudgeted one runs no greedy.
func LocalStepClustered(siteID string, st *geom.Store, res *dbscan.Result, cfg Config) (*LocalOutcome, error) {
	cfg = cfg.withDefaults()
	condenseStart := time.Now()
	o := &LocalOutcome{
		SiteID:      siteID,
		Points:      st.Views(),
		Clustering:  res,
		RepBudget:   cfg.RepBudget,
		st:          st,
		cfg:         cfg,
		numClusters: res.NumClusters(),
	}
	if cfg.RepBudget > 0 {
		o.rank = dbscan.RankScor(st, res)
	}
	var err error
	if o.Model, o.Budget, err = o.BudgetedModel(cfg.RepBudget); err != nil {
		return nil, err
	}
	o.Timings = LocalTimings{Condense: time.Since(condenseStart), Workers: 1}
	return o, nil
}

// BudgetedModel condenses the outcome's clustering under another
// per-cluster representative budget, without re-running DBSCAN or the
// greedy: the selection is a prefix of the outcome's ranking. The transport layer uses it to shrink a site's upload
// until it fits a server-advertised byte cap; budget 0 rebuilds the
// unbudgeted model. An outcome built unbudgeted has no ranking and refuses
// every positive budget. The outcome itself (Model, Budget) is not
// modified.
func (o *LocalOutcome) BudgetedModel(budget int) (*model.LocalModel, dbscan.BudgetStats, error) {
	switch {
	case budget < 0:
		return nil, dbscan.BudgetStats{}, fmt.Errorf("dbdc: site %s: negative budget %d", o.SiteID, budget)
	case budget == o.RepBudget && o.Model != nil:
		return o.Model, o.Budget, nil
	case budget > 0 && o.rank == nil:
		return nil, dbscan.BudgetStats{}, fmt.Errorf("dbdc: site %s: budget %d asked of an outcome built unbudgeted", o.SiteID, budget)
	}
	// The budgeted path never mutates the clustering: the ranking returns
	// a fresh Scor map that a shallow result copy carries into the
	// condensation.
	res, stats := o.Clustering, dbscan.BudgetStats{}
	if budget > 0 {
		b := *res
		b.Scor, stats = o.rank.Select(budget)
		res = &b
	}
	m := &model.LocalModel{
		SiteID:      o.SiteID,
		Kind:        o.cfg.Model,
		EpsLocal:    o.cfg.Local.Eps,
		MinPts:      o.cfg.Local.MinPts,
		NumObjects:  o.st.Len(),
		NumClusters: o.numClusters,
	}
	if o.numObjects > 0 {
		m.NumObjects = o.numObjects
	}
	var err error
	switch o.cfg.Model {
	case model.RepScor:
		m.Reps = scorReps(o.st, res, o.numClusters)
	case model.RepKMeans:
		// A REP_kMeans prefix re-runs k-means on its prefix seeds.
		if m.Reps, err = kmeansReps(o.st, res, o.numClusters); err != nil {
			return nil, stats, fmt.Errorf("dbdc: site %s: %w", o.SiteID, err)
		}
	}
	return m, stats, nil
}

// ShrinkBudget returns the largest budget up to RepBudget whose model
// encodes at least excess bytes smaller than the configured budget's, 0
// when not even budget 1 saves that much (or the outcome is unbudgeted).
// No model is built: every representative encodes in
// model.RepWireSize(dim) bytes, so the saving is the ranking's drop in
// representative count times that size. The count is non-decreasing in
// the budget, so the budgets that save enough are a prefix of 1…RepBudget.
func (o *LocalOutcome) ShrinkBudget(excess int64) int {
	if o.rank == nil {
		return 0
	}
	perRep := int64(model.RepWireSize(o.st.Dim()))
	return sort.Search(o.RepBudget, func(i int) bool {
		_, s := o.rank.Select(i + 1)
		return perRep*int64(o.Budget.Selected-s.Selected) < excess
	})
}

// scorReps builds the REP_Scor local model (Section 5.1): the specific core
// points with their specific ε-ranges, both already computed during the
// DBSCAN run, cluster by cluster in ascending id, 0 to k−1.
func scorReps(st *geom.Store, res *dbscan.Result, k int) []model.Representative {
	var reps []model.Representative
	for id := range cluster.ID(k) {
		for _, s := range res.Scor[id] {
			reps = append(reps, model.Representative{
				Point:        st.Point(s).Clone(),
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
// maximum distance of its assigned objects. The clusters are 0 to k−1,
// ascending.
func kmeansReps(st *geom.Store, res *dbscan.Result, k int) ([]model.Representative, error) {
	var reps []model.Representative
	for id := range cluster.ID(k) {
		members := res.Labels.Members(id)
		memberPts := make([]geom.Point, len(members))
		for i, m := range members {
			memberPts[i] = st.Point(m)
		}
		seeds := make([]geom.Point, len(res.Scor[id]))
		for i, s := range res.Scor[id] {
			seeds[i] = st.Point(s)
		}
		km, err := kmeans.Lloyd(memberPts, seeds, kmeans.DefaultMaxIterations)
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
