package dbdc

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/optics"
)

// OpticsOrderer implements the extension Section 6 of the paper discusses:
// instead of one DBSCAN run at a fixed Eps_global, the server computes an
// OPTICS ordering over all representatives once and can then extract the
// global model for any Eps_global cut up to epsMax without re-clustering,
// letting the analyst sweep the parameter "without running the clustering
// algorithm again and again".
type OpticsOrderer struct {
	reps     []model.GlobalRepresentative
	ordering *optics.Result
	epsMax   float64
}

// NewOpticsOrderer pools the representatives of all local models and
// computes their OPTICS ordering with generating radius epsMax. Zero
// selects the diagonal of the representatives' bounding box: every
// cluster-to-cluster jump then shows as a finite reachability, which the
// density-gap search of SuggestCut depends on.
func NewOpticsOrderer(models []*model.LocalModel, cfg Config, epsMax float64) (*OpticsOrderer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	reps, _, err := collectReps(models)
	if err != nil {
		return nil, err
	}
	pts := make([]geom.Point, len(reps))
	for i, r := range reps {
		pts[i] = r.Point
	}
	if epsMax == 0 && len(pts) > 0 {
		bounds := geom.BoundingRect(pts)
		epsMax = (geom.Euclidean{}).Distance(bounds.Min, bounds.Max)
	}
	if epsMax == 0 {
		epsMax = cfg.Local.Eps
	}
	idx, err := index.Build(index.KindRStar, pts, geom.Euclidean{}, epsMax)
	if err != nil {
		return nil, err
	}
	ordering, err := optics.Run(idx, dbscan.Params{Eps: epsMax, MinPts: DefaultMinPtsGlobal})
	if err != nil {
		return nil, err
	}
	return &OpticsOrderer{
		reps:     reps,
		ordering: ordering,
		epsMax:   epsMax,
	}, nil
}

// EpsMax returns the generating radius; cuts above it are rejected.
func (o *OpticsOrderer) EpsMax() float64 { return o.epsMax }

// Reachabilities exposes the reachability plot of the representatives, the
// artifact an analyst would inspect to choose the cut.
func (o *OpticsOrderer) Reachabilities() []float64 { return o.ordering.Reachabilities() }

// Extract derives the global model at the given Eps_global cut. Like
// GlobalStep, representatives left unmerged become singleton clusters.
func (o *OpticsOrderer) Extract(epsCut float64) (*model.GlobalModel, error) {
	if epsCut <= 0 || epsCut > o.epsMax {
		return nil, fmt.Errorf("dbdc: eps cut %v outside (0, %v]", epsCut, o.epsMax)
	}
	labels := o.ordering.ExtractDBSCAN(epsCut)
	reps := make([]model.GlobalRepresentative, len(o.reps))
	copy(reps, o.reps)
	next := cluster.ID(labels.NumClusters())
	// Renumber so extracted ids are dense before appending singletons.
	labels = labels.Canonicalize()
	ids := make(map[cluster.ID]bool)
	for i := range reps {
		id := labels[i]
		if id == cluster.Noise {
			id = next
			next++
		}
		reps[i].GlobalCluster = id
		ids[id] = true
	}
	return &model.GlobalModel{
		EpsGlobal:    epsCut,
		MinPtsGlobal: DefaultMinPtsGlobal,
		Reps:         reps,
		NumClusters:  len(ids),
	}, nil
}

// globalStepAuto implements Config.EpsGlobalAuto: order the representatives
// with OPTICS and extract at the widest density gap. When the gap search
// fails (too few representatives), it falls back to the max-ε_R default.
func globalStepAuto(models []*model.LocalModel, cfg Config) (*model.GlobalModel, error) {
	base := cfg
	base.EpsGlobalAuto = false
	ord, err := NewOpticsOrderer(models, base, 0)
	if err != nil {
		return nil, err
	}
	cut, err := ord.SuggestCut(DefaultMinPtsGlobal)
	if err != nil || cut <= 0 {
		return GlobalStep(models, base)
	}
	return ord.Extract(cut)
}

// SuggestCut proposes an Eps_global from the reachability plot of the
// representatives: the midpoint of the widest density gap (see
// optics.Result.SuggestCut). An alternative to the max-ε_R default when
// the analyst wants the data, not a rule of thumb, to pick the threshold.
func (o *OpticsOrderer) SuggestCut(minClusterSize int) (float64, error) {
	return o.ordering.SuggestCut(minClusterSize)
}
