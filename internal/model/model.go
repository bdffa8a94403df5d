// Package model defines the information DBDC exchanges between sites and
// server: the local model (Section 5 of the paper — representatives with
// their specific ε-ranges) and the global model (Section 6 — the same
// representatives annotated with global cluster ids). The package also
// provides the compact binary wire encoding used by the transport layer;
// its size is what makes DBDC's transmission cost "minimal, as the
// representatives are only a fraction of the original data".
package model

import (
	"fmt"
	"math"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
)

// Kind names a local-model construction strategy.
type Kind string

// The two local models of Section 5.
const (
	// RepScor represents each cluster by a complete set of specific core
	// points with specific ε-ranges (Section 5.1).
	RepScor Kind = "rep-scor"
	// RepKMeans refines the specific core points of each cluster with
	// k-means and ships the centroids instead (Section 5.2).
	RepKMeans Kind = "rep-kmeans"
)

// Kinds lists the available local model kinds.
func Kinds() []Kind { return []Kind{RepScor, RepKMeans} }

// Representative is one element of a local model: a point r and the
// ε_r-range describing the area it stands for. For RepScor the point is an
// actual database object; for RepKMeans it is a k-means centroid.
type Representative struct {
	Point geom.Point `json:"point"`
	// Eps is the specific ε-range ε_r: every object of the represented
	// local cluster within distance Eps of Point is represented by it.
	Eps float64 `json:"eps"`
	// LocalCluster is the id of the local cluster this representative
	// describes, unique within its site.
	LocalCluster cluster.ID `json:"localCluster"`
}

// LocalModel is the aggregated information one site sends to the server.
type LocalModel struct {
	// SiteID identifies the originating site.
	SiteID string `json:"siteID"`
	// Kind records which construction produced the representatives.
	Kind Kind `json:"kind"`
	// EpsLocal and MinPts are the site's DBSCAN parameters; the server uses
	// EpsLocal when deriving a default Eps_global.
	EpsLocal float64 `json:"epsLocal"`
	MinPts   int     `json:"minPts"`
	// Reps are the representatives of all local clusters.
	Reps []Representative `json:"reps"`
	// NumObjects is the cardinality of the site's data set (reported for
	// compression statistics, not needed by the algorithm).
	NumObjects int `json:"numObjects"`
	// NumClusters is the number of local clusters found.
	NumClusters int `json:"numClusters"`
}

// Validate checks structural soundness of a received local model; the
// server applies it to every incoming model before use.
func (m *LocalModel) Validate() error {
	if m.SiteID == "" {
		return fmt.Errorf("model: local model without site id")
	}
	if m.Kind != RepScor && m.Kind != RepKMeans {
		return fmt.Errorf("model: unknown model kind %q", m.Kind)
	}
	if !positiveFinite(m.EpsLocal) {
		return fmt.Errorf("model: EpsLocal %v is not positive and finite", m.EpsLocal)
	}
	var dim int
	for i, r := range m.Reps {
		if len(r.Point) == 0 {
			return fmt.Errorf("model: representative %d has no coordinates", i)
		}
		if !r.Point.IsFinite() {
			return fmt.Errorf("model: representative %d has non-finite coordinates", i)
		}
		if dim == 0 {
			dim = r.Point.Dim()
		} else if r.Point.Dim() != dim {
			return fmt.Errorf("model: representative %d has dimension %d, want %d",
				i, r.Point.Dim(), dim)
		}
		if !positiveFinite(r.Eps) {
			return fmt.Errorf("model: representative %d has eps %v, not positive and finite", i, r.Eps)
		}
		if r.LocalCluster < 0 {
			return fmt.Errorf("model: representative %d has invalid local cluster %d",
				i, r.LocalCluster)
		}
	}
	return nil
}

// positiveFinite reports whether an ε-range is usable: NaN compares false
// with everything, so a bare x <= 0 check lets it through, and +Inf fails
// every DBSCAN entry point downstream.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// MaxEps returns the largest specific ε-range of the model, the quantity
// the server's default Eps_global is derived from. Zero for empty models.
func (m *LocalModel) MaxEps() float64 {
	var max float64
	for _, r := range m.Reps {
		if r.Eps > max {
			max = r.Eps
		}
	}
	return max
}

// GlobalRepresentative is a local representative after global clustering:
// it carries its origin site and the global cluster it was assigned to.
type GlobalRepresentative struct {
	Representative
	SiteID string `json:"siteID"`
	// GlobalCluster is the id assigned by the server's clustering of all
	// representatives. Never noise: a representative that merges with no
	// other forms a singleton global cluster of its own.
	GlobalCluster cluster.ID `json:"globalCluster"`
}

// GlobalModel is what the server broadcasts back to every site.
//
// The all-noise round — every site found only noise, so there are no
// representatives to cluster — is encoded by the documented sentinel
// Reps == nil (empty), NumClusters == 0, EpsGlobal == 0: no server-side
// clustering happened, so no radius is fabricated. Empty() reports it and
// Validate accepts it; relabeling against the sentinel keeps every object
// noise.
type GlobalModel struct {
	// EpsGlobal and MinPtsGlobal are the parameters the server used.
	// EpsGlobal is 0 exactly when the model is the empty sentinel (no
	// representatives, no clustering performed).
	EpsGlobal    float64 `json:"epsGlobal"`
	MinPtsGlobal int     `json:"minPtsGlobal"`
	// Reps are all representatives of all sites with global cluster ids.
	Reps []GlobalRepresentative `json:"reps"`
	// NumClusters is the number of global clusters.
	NumClusters int `json:"numClusters"`
}

// Empty reports whether the model is the all-noise sentinel: no
// representatives arrived, so no global clustering was performed and no
// Eps_global exists.
func (g *GlobalModel) Empty() bool { return len(g.Reps) == 0 }

// Validate checks structural soundness of a received global model. The
// empty sentinel (no representatives, NumClusters 0, EpsGlobal 0) is valid;
// any non-empty model must carry a positive EpsGlobal.
func (g *GlobalModel) Validate() error {
	if g.EpsGlobal != 0 && !positiveFinite(g.EpsGlobal) {
		return fmt.Errorf("model: EpsGlobal %v is not positive and finite", g.EpsGlobal)
	}
	if g.EpsGlobal == 0 && len(g.Reps) > 0 {
		return fmt.Errorf("model: EpsGlobal 0 with %d representatives (the empty sentinel carries none)", len(g.Reps))
	}
	if g.MinPtsGlobal < 1 {
		return fmt.Errorf("model: MinPtsGlobal %d < 1", g.MinPtsGlobal)
	}
	seen := make(map[cluster.ID]bool)
	for i, r := range g.Reps {
		if !r.Point.IsFinite() || len(r.Point) == 0 {
			return fmt.Errorf("model: global representative %d has bad coordinates", i)
		}
		if !positiveFinite(r.Eps) {
			return fmt.Errorf("model: global representative %d has eps %v, not positive and finite", i, r.Eps)
		}
		if r.GlobalCluster < 0 {
			return fmt.Errorf("model: global representative %d labelled noise", i)
		}
		seen[r.GlobalCluster] = true
	}
	if len(seen) != g.NumClusters {
		return fmt.Errorf("model: NumClusters %d but %d distinct ids", g.NumClusters, len(seen))
	}
	return nil
}
