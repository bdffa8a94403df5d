package dbdc

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
)

// GlobalStep performs step 3 of DBDC on the server: it merges the local
// models by clustering the union of all representatives with DBSCAN using
// MinPts_global (default 2) and Eps_global (default: the maximum specific
// ε-range over all representatives, which is generally close to
// 2·Eps_local — Section 6). Representatives that merge with nothing keep a
// singleton global cluster of their own, because every representative
// already stands for a cluster region on its site.
func GlobalStep(models []*model.LocalModel, cfg Config) (*model.GlobalModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.EpsGlobalAuto {
		return globalStepAuto(models, cfg)
	}
	reps, maxEps, err := collectReps(models)
	if err != nil {
		return nil, err
	}
	epsGlobal := cfg.EpsGlobal
	if epsGlobal == 0 {
		epsGlobal = maxEps
	}
	if epsGlobal == 0 {
		// No representatives at all (every site found only noise): return
		// the documented all-noise sentinel — Reps nil, NumClusters 0,
		// EpsGlobal 0 (model.GlobalModel.Empty). No clustering happened,
		// so no radius is invented for sites to relabel against; Relabel
		// handles the sentinel explicitly by keeping every object noise.
		return &model.GlobalModel{
			EpsGlobal:    0,
			MinPtsGlobal: DefaultMinPtsGlobal,
		}, nil
	}
	pts := make([]geom.Point, len(reps))
	for i, r := range reps {
		pts[i] = r.Point
	}
	idx, err := index.Build(index.KindRStar, pts, geom.Euclidean{}, epsGlobal)
	if err != nil {
		return nil, err
	}
	// SiteWorkers applies to the server's merge clustering too (the aggtree
	// interior nodes run this step per region, so the parallelism matters
	// at scale).
	res, err := dbscan.Run(idx, dbscan.Params{Eps: epsGlobal, MinPts: DefaultMinPtsGlobal}, dbscan.Options{Workers: cfg.SiteWorkers})
	if err != nil {
		return nil, err
	}
	// Merged representatives take their DBSCAN cluster id; unmerged ones
	// (noise under MinPts_global) each become a singleton global cluster.
	next := cluster.ID(res.NumClusters())
	ids := make(map[cluster.ID]bool)
	for i := range reps {
		id := res.Labels[i]
		if id == cluster.Noise {
			id = next
			next++
		}
		reps[i].GlobalCluster = id
		ids[id] = true
	}
	return &model.GlobalModel{
		EpsGlobal:    epsGlobal,
		MinPtsGlobal: DefaultMinPtsGlobal,
		Reps:         reps,
		NumClusters:  len(ids),
	}, nil
}

// collectReps flattens and validates the local models, returning the pooled
// representatives and the largest specific ε-range seen.
func collectReps(models []*model.LocalModel) ([]model.GlobalRepresentative, float64, error) {
	var reps []model.GlobalRepresentative
	var maxEps float64
	for _, m := range models {
		if m == nil {
			continue
		}
		if err := m.Validate(); err != nil {
			return nil, 0, fmt.Errorf("dbdc: rejecting local model: %w", err)
		}
		if e := m.MaxEps(); e > maxEps {
			maxEps = e
		}
		for _, r := range m.Reps {
			reps = append(reps, model.GlobalRepresentative{
				Representative: r,
				SiteID:         m.SiteID,
				GlobalCluster:  cluster.Noise,
			})
		}
	}
	return reps, maxEps, nil
}
