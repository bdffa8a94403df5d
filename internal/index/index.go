// Package index provides neighborhood indexes over a fixed set of points.
// The access method (linear scan, R*-tree) is interchangeable behind the
// Index interface; the paper's DBSCAN uses an R*-tree for vector data, and
// the linear scan is the oracle it is tested against. DBSCAN asks no index
// for a neighbourhood — not to cluster, not to condense, not in FromCores:
// it walks the optional Leaves an index offers, the bulk-loaded R*-tree's,
// leaf by leaf, and takes an index without them for one leaf. The region
// query, RangeAppend, serves OPTICS, pdbscan and the tests.
//
// Every index is built over a geom.Store by BuildStore, the one place input
// is checked. Both kinds are Euclidean: each has one query arm, a scan or a
// descent over its store verified in squared space by the strided kernels.
//
// Every static kind follows one rule: a static store-backed index is a
// permutation plus spans plus a descent. The build lays the ids out once in
// one permutation and gives each leaf a span of it; a query descends the
// kind's own structure — packed boxes — and hands each span it reaches, as it
// stands, to Store.VerifyRangeSq. The linear scan is the degenerate case: the
// store's own order is its one span, which Store.VerifyIntervalSq verifies
// whole with no descent. No kind keeps per-query state beyond its stack, so
// none pools scratch, and a neighbour list is the reached spans' survivors in
// visit order. No index grows after its build: incremental DBSCAN keeps its
// own grid of ε-cells.
package index

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index/rstar"
)

// Index is a fixed geom.Store and the Euclidean ε-range query over its rows,
// by point: an indexed point is queried as Point(i). Implementations are safe
// for concurrent readers after construction.
type Index interface {
	// Len returns the number of indexed points.
	Len() int
	// Point returns the i-th indexed point. Callers must not mutate it.
	Point(i int) geom.Point
	// RangeAppend returns the indexes of all points within distance eps of
	// q, boundary inclusive (the Eps-neighborhood N_Eps(q) of the paper,
	// including q itself when q is an indexed point), appended into buf
	// after truncating it to zero length, letting tight loops (OPTICS,
	// pdbscan) avoid one allocation per query. Order is unspecified. A nil
	// buf asks for a fresh slice. The whole capacity of buf is the index's to
	// scribble on (the store verifiers write candidates past the result
	// before they know the verdict), so hand in a buffer, not a window of
	// a slice whose tail is still in use. DBSCAN asks for none: it walks
	// Leaves.
	RangeAppend(q geom.Point, eps float64, buf []int) []int
	// Store returns the flat store the index answers queries from; its rows
	// are the index's ids. The clustering layers run their point-vs-point
	// comparisons through its strided kernels by id.
	Store() *geom.Store
}

// Leaves is implemented by an index that keeps its points in boxed leaves,
// the unit dbscan.Run hands out to its workers and pairs up: every id lies in
// exactly one leaf, and inside that leaf's box.
type Leaves interface {
	// NumLeaves returns the number of leaves, or 0 when the index has none
	// to offer; Leaf and NearLeaves are then not to be called.
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
// store. Every kind answers under the Euclidean metric, the one the metric
// slot admits. The R*-tree sizes its leaf links to epsHint, the intended
// query radius; the linear scan ignores it. A store holding a NaN or ±Inf
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
