// Package index provides neighborhood indexes over a fixed set of points.
// DBSCAN and the DBDC pipeline retrieve ε-neighborhoods exclusively through
// the Index interface, so the access method (linear scan, R*-tree) is
// interchangeable; the paper's DBSCAN uses an R*-tree for vector data, and
// the linear scan is the oracle it is tested against.
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
// visit order. Only the incremental clusterer grows a tree (rstar.Tree).
package index

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index/rstar"
)

// Index answers Euclidean ε-range queries over the rows of a fixed
// geom.Store. Implementations are safe for concurrent readers after
// construction.
type Index interface {
	// Len returns the number of indexed points.
	Len() int
	// Point returns the i-th indexed point. Callers must not mutate it.
	Point(i int) geom.Point
	// Range returns the indexes of all points within distance eps of q,
	// boundary inclusive (the Eps-neighborhood N_Eps(q) of the paper,
	// including q itself when q is an indexed point). Order is unspecified.
	Range(q geom.Point, eps float64) []int
	// RangeAppend behaves like Range but appends into buf after truncating
	// it to zero length, letting tight loops (DBSCAN expansion) avoid one
	// allocation per query. The whole capacity of buf is the index's to
	// scribble on (the store verifiers write candidates past the result
	// before they know the verdict), so hand in a buffer, not a window of
	// a slice whose tail is still in use.
	RangeAppend(q geom.Point, eps float64, buf []int) []int
	// RangeAppendID behaves like RangeAppend with q = Point(i), the form the
	// DBSCAN expansion loops use (their query points are always index
	// members): the query row is read from the store in place.
	RangeAppendID(i int, eps float64, buf []int) []int
	// Store returns the flat store the index answers queries from; its rows
	// are the index's ids. The clustering layers run their point-vs-point
	// comparisons through its strided kernels by id.
	Store() *geom.Store
}

// UnseenRangeAppender is implemented by indexes that keep their points in
// leaves and let the DBSCAN expansion work by them: it counts what it has yet
// to see of each leaf and has a by-id query leave out the rest.
type UnseenRangeAppender interface {
	// Leaves returns the leaf of every id and the number of leaves, or nil
	// and 0 when the index has none to offer; RangeAppendIDUnseen is then not
	// to be called.
	Leaves() (leafOf []int32, leaves int)
	// RangeAppendIDUnseen appends a duplicate-free part R of N_eps(Point(i)):
	// all of it when it has fewer than enough members, and otherwise at least
	// enough of them and every member q with unseen[leafOf[q]] > 0.
	RangeAppendIDUnseen(i int, eps float64, enough int, unseen []int32, buf []int) []int
}

// LeavesOf returns idx's leaves, or nil and 0 when it has none to offer.
func LeavesOf(idx Index) (leafOf []int32, leaves int) {
	if ra, ok := idx.(UnseenRangeAppender); ok {
		return ra.Leaves()
	}
	return nil, 0
}

// RangeIntoIDUnseen is idx.RangeAppendID for a caller content with that
// part of the neighborhood; unseen holds one count per leaf of LeavesOf(idx),
// or is nil.
func RangeIntoIDUnseen(idx Index, i int, eps float64, enough int, unseen []int32, buf []int) []int {
	if ra, ok := idx.(UnseenRangeAppender); ok && unseen != nil {
		return ra.RangeAppendIDUnseen(i, eps, enough, unseen, buf)
	}
	return idx.RangeAppendID(i, eps, buf)
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
