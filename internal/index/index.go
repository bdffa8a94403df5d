// Package index provides neighborhood indexes over a fixed set of points.
// DBSCAN and the DBDC pipeline retrieve ε-neighborhoods exclusively through
// the Index interface, so the access method (linear scan, R*-tree, M-tree) is
// interchangeable; the paper's DBSCAN uses an R*-tree for vector data and an
// M-tree for general metric data, and the linear scan is the oracle both are
// tested against.
//
// Every index is built over a geom.Store by BuildStore, the one place input
// is checked. Linear scan and R*-tree are Euclidean-only: each has one query
// arm, a scan or a descent over its store verified in squared space by the
// strided kernels. The M-tree is the one metric-space index: under any other
// metric it verifies through Metric.Distance.
//
// Every static kind follows one rule: a static store-backed index is a
// permutation plus spans plus a descent. The build lays the ids out once in
// one permutation and gives each leaf a span of it; a query descends the
// kind's own structure — packed boxes, covering balls — and hands each span
// it reaches, as it stands, to Store.VerifyRangeSq. The linear scan is the
// degenerate case: the store's own order is its one span, which
// Store.VerifyIntervalSq verifies whole with no descent. No kind keeps
// per-query state beyond its stack, so none pools scratch, and a neighbour
// list is the reached spans' survivors in visit order. Only the incremental
// clusterer grows a tree (rstar.Tree).
package index

import (
	"fmt"
	"slices"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index/mtree"
	"github.com/dbdc-go/dbdc/internal/index/rstar"
)

// Index answers ε-range queries over a fixed point set. Implementations are
// safe for concurrent readers after construction.
type Index interface {
	// Len returns the number of indexed points.
	Len() int
	// Point returns the i-th indexed point. Callers must not mutate it.
	Point(i int) geom.Point
	// Range returns the indexes of all points within distance eps of q,
	// boundary inclusive (the Eps-neighborhood N_Eps(q) of the paper,
	// including q itself when q is an indexed point). Order is unspecified.
	Range(q geom.Point, eps float64) []int
	// Metric returns the distance function the index answers queries under.
	Metric() geom.Metric
}

// RangeAppender is implemented by indexes that can write range results
// into a caller-supplied buffer, letting tight loops (DBSCAN expansion)
// avoid one allocation per query.
type RangeAppender interface {
	// RangeAppend behaves like Range but appends into buf after truncating
	// it to zero length. The whole capacity of buf is the index's to
	// scribble on (the store verifiers write candidates past the result
	// before they know the verdict), so hand in a buffer, not a window of
	// a slice whose tail is still in use.
	RangeAppend(q geom.Point, eps float64, buf []int) []int
}

// RangeInto performs a range query through idx, reusing buf when the index
// supports it.
func RangeInto(idx Index, q geom.Point, eps float64, buf []int) []int {
	if ra, ok := idx.(RangeAppender); ok {
		return ra.RangeAppend(q, eps, buf)
	}
	return idx.Range(q, eps)
}

// IDRangeAppender is implemented by indexes that can answer a range query
// for one of their own points addressed by id, without the caller
// materialising the query point. Store-backed indexes route this through
// the strided geom.Store kernels (flat-buffer row vs. flat-buffer row).
type IDRangeAppender interface {
	// RangeAppendID behaves like RangeAppend with q = Point(i).
	RangeAppendID(i int, eps float64, buf []int) []int
}

// RangeIntoID performs the range query for indexed point i, the form the
// DBSCAN expansion loops use (their query points are always index members).
// It prefers the by-id fast path and falls back to RangeInto with the
// zero-copy Point(i) view — never a per-point copy.
func RangeIntoID(idx Index, i int, eps float64, buf []int) []int {
	if ra, ok := idx.(IDRangeAppender); ok {
		return ra.RangeAppendID(i, eps, buf)
	}
	return RangeInto(idx, idx.Point(i), eps, buf)
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

// RangeIntoIDUnseen is RangeIntoID for a caller content with that part of the
// neighborhood; unseen holds one count per leaf of LeavesOf(idx), or is nil.
func RangeIntoIDUnseen(idx Index, i int, eps float64, enough int, unseen []int32, buf []int) []int {
	if ra, ok := idx.(UnseenRangeAppender); ok && unseen != nil {
		return ra.RangeAppendIDUnseen(i, eps, enough, unseen, buf)
	}
	return RangeIntoID(idx, i, eps, buf)
}

// StoreBacked is implemented by every static index kind. Store returns the
// flat geom.Store the index answers Euclidean queries from — the clustering
// layers then run their point-vs-point comparisons through the strided
// kernels by id — and nil when there is none: an M-tree under another metric.
// The dynamic R*-tree does not implement it: its rows include slots it has
// deleted.
type StoreBacked interface {
	Store() *geom.Store
}

// StoreOf returns the backing store of idx, or nil. Only a Euclidean index
// has one (the strided kernels are Euclidean-only), so a non-nil result
// licenses substituting them for Metric().Distance.
func StoreOf(idx Index) *geom.Store {
	if sb, ok := idx.(StoreBacked); ok {
		return sb.Store()
	}
	return nil
}

// Kind names a concrete index implementation.
type Kind string

// Available index kinds.
const (
	KindLinear Kind = "linear"
	KindRStar  Kind = "rstar"
	KindMTree  Kind = "mtree"
)

// Kinds lists every available index kind.
func Kinds() []Kind {
	return []Kind{KindLinear, KindRStar, KindMTree}
}

// isEuclidean reports whether m is the Euclidean metric; nil defaults to it.
func isEuclidean(m geom.Metric) bool {
	_, ok := m.(geom.Euclidean)
	return ok || m == nil
}

// Build constructs an index of the requested kind over pts, copied once into
// a geom.Store and built by BuildStore. An empty set has no stride to infer
// and gets stride 1, which nothing reads from a store without rows; mixed or
// zero dimensionality is an error.
func Build(kind Kind, pts []geom.Point, metric geom.Metric, epsHint float64) (Index, error) {
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
// store. The M-tree takes any metric; every other kind answers under the
// Euclidean metric only, which a nil metric defaults to. The R*-tree sizes
// its leaf links to epsHint, the intended query radius; the other kinds
// ignore it. A store holding a NaN or ±Inf coordinate is refused, with the
// row named: no kind is specified for such input. An unknown kind is refused
// with the kinds that exist named.
func BuildStore(kind Kind, st *geom.Store, metric geom.Metric, epsHint float64) (Index, error) {
	if !st.IsFinite() {
		for i := range st.Len() {
			if p := st.Point(i); !p.IsFinite() {
				return nil, fmt.Errorf("index: non-finite point %v at row %d", p, i)
			}
		}
	}
	switch {
	case kind == KindMTree:
		return mtree.NewFromStore(st, metric)
	case !slices.Contains(Kinds(), kind):
		return nil, fmt.Errorf("index: unknown kind %q, want one of %v", kind, Kinds())
	case !isEuclidean(metric):
		return nil, fmt.Errorf("index: the %s index supports only the Euclidean metric, not %s; use the M-tree for general metrics", kind, metric.Name())
	case kind == KindLinear:
		return NewLinearStore(st), nil
	default:
		return rstar.NewBulkStore(st, rstar.DefaultMaxEntries, epsHint)
	}
}
