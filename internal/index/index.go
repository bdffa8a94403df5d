// Package index provides neighborhood indexes over a fixed set of points.
// DBSCAN and the DBDC pipeline retrieve ε-neighborhoods exclusively through
// the Index interface, so the access method (linear scan, grid, kd-tree,
// R*-tree, M-tree) is interchangeable; the paper's DBSCAN uses an R*-tree
// for vector data and an M-tree for general metric data.
package index

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/geom"
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
// leaves and let a caller work by them: the DBSCAN expansion, which counts what
// it has yet to see of each leaf and has a by-id query leave out the rest, and
// the relabel step, which settles a leaf at a time.
type UnseenRangeAppender interface {
	// Leaves returns the leaf of every id and the number of leaves, or nil
	// and 0 when the index has none to offer; the other methods are then not
	// to be called.
	Leaves() (leafOf []int32, leaves int)
	// Leaf returns the ids of a leaf, not to be written.
	Leaf(leaf int) []int
	// LeavesInReach appends to out the leaves whose box lies within eps of q:
	// the ones a range query at (q, eps) takes its result from, in its order.
	LeavesInReach(q geom.Point, eps float64, out []int) []int
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

// StoreBacked is implemented by every index kind. Store returns the flat
// geom.Store the index answers Euclidean queries from — the clustering
// layers then run their point-vs-point comparisons through the strided
// kernels by id — and nil when there is none: the metric is not Euclidean,
// or the index has grown past its original store (dynamic insertion) and the
// flat buffer no longer covers every indexed point.
type StoreBacked interface {
	Store() *geom.Store
}

// StoreOf returns the backing store of idx, or nil. A store is only ever
// retained under the Euclidean metric (the strided kernels are
// Euclidean-only), so a non-nil result licenses substituting them for
// Metric().Distance.
func StoreOf(idx Index) *geom.Store {
	if sb, ok := idx.(StoreBacked); ok {
		return sb.Store()
	}
	return nil
}

// KNNIndex is implemented by indexes that additionally support k-nearest-
// neighbor queries (used by the k-dist heuristic for choosing Eps).
type KNNIndex interface {
	Index
	// KNN returns the indexes of the k points nearest to q in ascending
	// distance order. Fewer are returned when the index holds fewer points.
	KNN(q geom.Point, k int) []int
}

// Kind names a concrete index implementation.
type Kind string

// Available index kinds.
const (
	KindLinear Kind = "linear"
	KindGrid   Kind = "grid"
	KindKDTree Kind = "kdtree"
	KindRStar  Kind = "rstar"
	KindMTree  Kind = "mtree"
)

// Kinds lists every available index kind.
func Kinds() []Kind {
	return []Kind{KindLinear, KindGrid, KindKDTree, KindRStar, KindMTree}
}

// isEuclidean reports whether m is the Euclidean metric; nil defaults to it.
func isEuclidean(m geom.Metric) bool {
	_, ok := m.(geom.Euclidean)
	return ok || m == nil
}

// retained returns what an index built over st under metric keeps: the store
// only under the Euclidean metric — the strided kernels are Euclidean-only —
// which a nil metric defaults to.
func retained(st *geom.Store, metric geom.Metric) (geom.Metric, *geom.Store) {
	if isEuclidean(metric) {
		return geom.Euclidean{}, st
	}
	return metric, nil
}

// storeFor is where "Euclidean ⇒ store-backed" is enforced for builds from a
// point slice: under the Euclidean (or nil) metric pts are copied once into
// a flat store, and the caller goes through the store builder of its kind.
// An empty set has no stride to infer and gets stride 1, which nothing reads
// from a store without rows. Any other metric keeps the slice (nil store)
// after the one-time dimensionality validation that lets the distance
// kernels skip their per-call checks (re-enable them with -tags
// dbdc_debugchecks).
func storeFor(pts []geom.Point, metric geom.Metric) (*geom.Store, error) {
	if isEuclidean(metric) {
		if len(pts) == 0 {
			return geom.NewStore(1, 0), nil
		}
		return geom.FromPoints(pts)
	}
	for i, p := range pts {
		if p.Dim() == 0 || p.Dim() != pts[0].Dim() {
			return nil, fmt.Errorf("index: point %d has dimension %d, want a uniform positive dimensionality (%d)", i, p.Dim(), pts[0].Dim())
		}
	}
	return nil, nil
}

// Builder constructs an index over the given points, of validated uniform
// dimensionality, under a non-Euclidean metric (Build routes Euclidean input
// to the StoreBuilder of the kind). Grid-based builders use epsHint (the
// intended query radius) to size their cells; others ignore it.
type Builder func(pts []geom.Point, metric geom.Metric, epsHint float64) (Index, error)

// StoreBuilder constructs an index over a flat point store. Store-backed
// builds serve Point(i) as zero-copy views into the store and, under the
// Euclidean metric, verify range candidates through the strided kernels — no
// point is re-cloned on the way into the index.
type StoreBuilder func(st *geom.Store, metric geom.Metric, epsHint float64) (Index, error)

var builders = map[Kind]Builder{}
var storeBuilders = map[Kind]StoreBuilder{}

// RegisterBuilder installs the builder for a kind. The concrete index
// packages (rstar, mtree) register themselves via their Install helpers to
// avoid import cycles; the in-package indexes are registered at init.
func RegisterBuilder(kind Kind, b Builder) { builders[kind] = b }

// RegisterStoreBuilder installs the store-backed builder for a kind.
func RegisterStoreBuilder(kind Kind, b StoreBuilder) { storeBuilders[kind] = b }

// Build constructs an index of the requested kind over pts. Euclidean (or
// nil-metric) input is copied once into a geom.Store and built by BuildStore,
// so central and distributed clusterings run the same kernels; the slice
// builders serve the other metrics only.
func Build(kind Kind, pts []geom.Point, metric geom.Metric, epsHint float64) (Index, error) {
	st, err := storeFor(pts, metric)
	if err != nil {
		return nil, err
	}
	if st != nil {
		return BuildStore(kind, st, metric, epsHint)
	}
	b, ok := builders[kind]
	if !ok {
		return nil, fmt.Errorf("index: kind %q has no builder for the %s metric", kind, metric.Name())
	}
	return b(pts, metric, epsHint)
}

// BuildStore constructs an index of the requested kind over a flat point
// store.
func BuildStore(kind Kind, st *geom.Store, metric geom.Metric, epsHint float64) (Index, error) {
	b, ok := storeBuilders[kind]
	if !ok {
		return nil, fmt.Errorf("index: no builder registered for kind %q", kind)
	}
	return b(st, metric, epsHint)
}

func init() {
	RegisterBuilder(KindLinear, func(pts []geom.Point, m geom.Metric, _ float64) (Index, error) {
		return &Linear{pts: pts, metric: m}, nil
	})
	RegisterBuilder(KindGrid, func(pts []geom.Point, m geom.Metric, eps float64) (Index, error) {
		return buildGrid(pts, m, nil, eps)
	})
	RegisterBuilder(KindKDTree, func(pts []geom.Point, m geom.Metric, _ float64) (Index, error) {
		return buildKDTree(pts, m, nil), nil
	})
	RegisterStoreBuilder(KindLinear, func(st *geom.Store, m geom.Metric, _ float64) (Index, error) {
		return NewLinearStore(st, m), nil
	})
	RegisterStoreBuilder(KindGrid, func(st *geom.Store, m geom.Metric, eps float64) (Index, error) {
		return NewGridStore(st, m, eps)
	})
	RegisterStoreBuilder(KindKDTree, func(st *geom.Store, m geom.Metric, _ float64) (Index, error) {
		return NewKDTreeStore(st, m), nil
	})
}
