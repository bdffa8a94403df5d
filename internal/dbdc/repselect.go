package dbdc

import (
	"fmt"
	"math"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
)

// RepSelector is the deterministic representative-choice rule of Section 7
// — "o ∈ N_{ε_r}(r) ⇒ o takes r's global cluster id, the nearest r wins" —
// packaged as a reusable component. Relabel (step 4 of a DBDC round over raw
// points) and the online classifier of internal/serve both go through this
// one type, so the relabeling of training points and the serving-time
// classification of arbitrary points cannot drift apart.
//
// The rule, spelled out:
//
//  1. Candidate generation: a range query over the representative points
//     with radius max ε_r (the largest specific ε-range of the model) —
//     every representative whose own range could cover the query point is
//     within that radius.
//  2. Per-candidate filter: candidate r covers o iff dist(o, r) ≤ ε_r.
//     The comparison runs in squared space (d² ≤ ε_r²) on the strided
//     store kernels, which is exact for non-negative values.
//  3. Choice: among the covering representatives the nearest one wins;
//     exact distance ties break toward the lowest representative index in
//     GlobalModel.Reps order. The tie rule makes the outcome independent
//     of the (unspecified) range-query result order, so every index kind
//     classifies identically.
//  4. No covering representative ⇒ noise.
//
// RelabelSite reaches the same labels the other way round — one range query
// per representative over the site's objects (relabelByRep) — and
// TestRelabelSiteMatchesPerPoint pins that batch path and this per-point
// path to each other, label for label.
//
// A RepSelector is immutable after construction and safe for concurrent
// readers, matching the underlying index contract.
type RepSelector struct {
	reps   []model.GlobalRepresentative
	epsSq  []float64 // per-representative ε_r², index-aligned with reps
	maxEps float64
	dim    int
	idx    index.Index
	// store holds the representative points in one flat backing array,
	// row-aligned with reps. The candidate filter of SelectInto runs on the
	// strided store kernel (bit-identical to sq.DistanceSq — same operand
	// and summation order) so classification never chases per-rep slice
	// headers.
	store *geom.Store
}

// NewRepSelector builds the selector for a global model over the given
// spatial index kind (empty selects the kd-tree, the historical Relabel
// index). The empty global model — the all-noise sentinel — yields a
// selector that classifies everything as noise; a structurally broken
// model (e.g. representatives of mixed dimensionality) returns an error.
func NewRepSelector(global *model.GlobalModel, kind index.Kind) (*RepSelector, error) {
	s := &RepSelector{}
	if global.Empty() {
		return s, nil
	}
	if kind == "" {
		kind = index.KindKDTree
	}
	s.reps = global.Reps
	s.epsSq = make([]float64, len(global.Reps))
	repPts := make([]geom.Point, len(global.Reps))
	for i, r := range global.Reps {
		repPts[i] = r.Point
		s.epsSq[i] = r.Eps * r.Eps
		if r.Eps > s.maxEps {
			s.maxEps = r.Eps
		}
	}
	dim, err := repDim(global)
	if err != nil {
		return nil, err
	}
	s.dim = dim
	metric := geom.Euclidean{}
	// Pack the representative points into one flat store (validated above,
	// so FromPoints cannot fail on dimensionality) and bulk-load the index
	// from it: range queries and the candidate filter both run on the
	// strided kernels.
	st, err := geom.FromPoints(repPts)
	if err != nil {
		return nil, fmt.Errorf("dbdc: relabel: indexing %d global representatives: %w",
			len(global.Reps), err)
	}
	idx, err := index.BuildStore(kind, st, metric, s.maxEps)
	if err != nil {
		return nil, fmt.Errorf("dbdc: relabel: indexing %d global representatives: %w",
			len(global.Reps), err)
	}
	s.idx = idx
	s.store = st
	return s, nil
}

// repDim returns the dimensionality the representatives of a non-empty model
// share, or the error that names the first one that deviates — validated here
// so library callers are told which representative is broken.
func repDim(global *model.GlobalModel) (int, error) {
	dim := global.Reps[0].Point.Dim()
	for i, r := range global.Reps {
		if r.Point.Dim() != dim {
			return 0, fmt.Errorf("dbdc: relabel: indexing %d global representatives: representative %d has dimension %d, want %d",
				len(global.Reps), i, r.Point.Dim(), dim)
		}
	}
	return dim, nil
}

// Empty reports whether the selector was built from the all-noise sentinel
// (every classification returns noise).
func (s *RepSelector) Empty() bool { return s.idx == nil }

// Dim returns the dimensionality of the representative points, 0 for the
// empty selector.
func (s *RepSelector) Dim() int { return s.dim }

// NumReps returns the number of representatives behind the selector.
func (s *RepSelector) NumReps() int { return len(s.reps) }

// MaxEps returns the candidate-generation radius max ε_r.
func (s *RepSelector) MaxEps() float64 { return s.maxEps }

// RepScratch holds the reusable per-caller buffers of the selection hot
// path: the candidate ids of the range query and the distance block of the
// batched filter. Zero value ready to use; one instance per goroutine
// (Classifier pools them, Relabel uses one for its single loop).
type RepScratch struct {
	ids  []int
	dist []float64
}

// SelectInto classifies one point under the representative-choice rule,
// reusing the scratch buffers across calls. The candidate filter is
// batched: the range query collects the candidate representatives, one
// strided kernel sweep computes every candidate distance (bit-identical to
// the historical per-candidate DistanceSqTo — the same shared kernel body,
// same operand order), and the choice folds over the distance block in
// candidate order, so the winner and its tie-breaking are unchanged. The
// query point must have the selector's dimensionality; Select validates,
// SelectInto is the trusted hot path.
func (s *RepSelector) SelectInto(p geom.Point, sc *RepScratch) cluster.ID {
	if s.idx == nil {
		return cluster.Noise
	}
	sc.ids = index.RangeInto(s.idx, p, s.maxEps, sc.ids)
	cand := sc.ids
	if len(cand) == 0 {
		return cluster.Noise
	}
	if cap(sc.dist) < len(cand) {
		sc.dist = make([]float64, len(cand)+16)
	}
	dist := s.store.DistanceSqBatch(p, cand, sc.dist[:len(cand)])
	best := cluster.Noise
	bestSq := math.Inf(1)
	bestRep := math.MaxInt
	for k, ri := range cand {
		d2 := dist[k]
		if d2 > s.epsSq[ri] {
			continue // outside r's own ε_r-range
		}
		if d2 < bestSq || (d2 == bestSq && ri < bestRep) {
			best, bestSq, bestRep = s.reps[ri].GlobalCluster, d2, ri
		}
	}
	return best
}

// Select classifies one point, validating its dimensionality first. This
// is the entry point for untrusted (network-supplied) points: a dimension
// mismatch is reported as an error instead of a panic in the distance
// kernel.
func (s *RepSelector) Select(p geom.Point) (cluster.ID, error) {
	if s.idx == nil {
		return cluster.Noise, nil
	}
	if p.Dim() != s.dim {
		return cluster.Noise, fmt.Errorf("dbdc: classify: point has dimension %d, model has %d", p.Dim(), s.dim)
	}
	if !p.IsFinite() {
		return cluster.Noise, fmt.Errorf("dbdc: classify: point has non-finite coordinates")
	}
	var sc RepScratch
	return s.SelectInto(p, &sc), nil
}
