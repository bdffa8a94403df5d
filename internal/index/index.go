// Package index lays a fixed set of points out in boxed leaves, the unit
// DBSCAN finds every ε-neighbourhood by. The layout (linear scan, R*-tree) is
// interchangeable behind the Index interface; the paper's DBSCAN uses an
// R*-tree for vector data, and the linear scan — all the points in one leaf —
// is the oracle it is tested against.
//
// Every index is built over a geom.Store by BuildStore, the one place input
// is checked. An index is its store plus its leaves: the build lays the ids
// out once, each leaf a run of them and their box, and lists, at any radius,
// the leaves whose boxes lie near a leaf's. It answers no region query and
// verifies no distance: dbscan walks the near leaves of a point's leaf
// through the store's kernels, for Run, the condensation and FromCores alike,
// and hands OPTICS and pdbscan the same walk by id (dbscan.Neighbours). No
// kind keeps per-query state, so none pools scratch. No index grows after its
// build: incremental DBSCAN keeps its own grid of ε-cells.
package index

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index/rstar"
)

// Index is a fixed geom.Store laid out in leaves: every id lies in exactly one
// leaf, and inside that leaf's box. Implementations are safe for concurrent
// readers after construction.
type Index interface {
	// Len returns the number of indexed points.
	Len() int
	// Point returns the i-th indexed point. Callers must not mutate it.
	Point(i int) geom.Point
	// Store returns the flat store the index lays out; its rows are the
	// index's ids. The clustering layers run their point-vs-point
	// comparisons through its strided kernels by id.
	Store() *geom.Store
	// NumLeaves returns the number of leaves, 0 when the store has no rows.
	NumLeaves() int
	// Leaf returns the ids leaf i holds and its box, the Min corner then the
	// Max corner. Both are views the caller must not modify.
	Leaf(i int) (ids []int, box []float64)
	// NearLeaves appends to near, and returns, every leaf whose box lies
	// within eps of leaf i's box, i among them, each once.
	NearLeaves(i int, eps float64, near []int32) []int32
}

// Kind names a concrete index implementation.
type Kind string

// Available index kinds.
const (
	KindLinear Kind = "linear"
	KindRStar  Kind = "rstar"
)

// Kinds lists every available index kind.
func Kinds() []Kind {
	return []Kind{KindLinear, KindRStar}
}

// Build constructs an index of the requested kind over pts, copied once into
// a geom.Store and built by BuildStore. An empty set has no stride to infer
// and gets stride 1, which nothing reads from a store without rows; mixed or
// zero dimensionality is an error.
func Build(kind Kind, pts []geom.Point, metric geom.Euclidean, epsHint float64) (Index, error) {
	st := geom.NewStore(1, 0)
	if len(pts) > 0 {
		var err error
		if st, err = geom.FromPoints(pts); err != nil {
			return nil, err
		}
	}
	return BuildStore(kind, st, metric, epsHint)
}

// BuildStore constructs an index of the requested kind over a flat point
// store. Every kind lays out for the Euclidean metric, the one the metric
// slot admits. The R*-tree sizes its leaf links to epsHint, the radius its
// leaves are to be walked at; the linear scan ignores it. A store holding a NaN or ±Inf
// coordinate is refused, with the row named: no kind is specified for such
// input. An unknown kind is refused with the kinds that exist named.
func BuildStore(kind Kind, st *geom.Store, _ geom.Euclidean, epsHint float64) (Index, error) {
	if !st.IsFinite() {
		for i := range st.Len() {
			if p := st.Point(i); !p.IsFinite() {
				return nil, fmt.Errorf("index: non-finite point %v at row %d", p, i)
			}
		}
	}
	switch kind {
	case KindLinear:
		return NewLinearStore(st), nil
	case KindRStar:
		return rstar.NewBulkStore(st, rstar.DefaultMaxEntries, epsHint)
	default:
		return nil, fmt.Errorf("index: unknown kind %q, want one of %v", kind, Kinds())
	}
}
