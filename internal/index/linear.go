package index

import "github.com/dbdc-go/dbdc/internal/geom"

// Linear is the exhaustive-scan index: every query compares against every
// row of its store. It has zero build cost and serves as the correctness
// oracle the tree indexes are property-tested against.
type Linear struct {
	store *geom.Store
}

// NewLinearStore builds a linear index over the points of a flat store, which
// it retains: Point(i) serves zero-copy views into it and the scan runs on the
// fused strided verification kernel (contiguous rows, no pointer chase per
// point).
func NewLinearStore(st *geom.Store) *Linear {
	return &Linear{store: st}
}

// Store implements Index.
func (l *Linear) Store() *geom.Store { return l.store }

// Len implements Index.
func (l *Linear) Len() int { return l.store.Len() }

// Point implements Index.
func (l *Linear) Point(i int) geom.Point { return l.store.Point(i) }

// RangeAppend implements Index. It is allocation-free when buf has
// capacity. The interval verification kernel streams the flat buffer and
// thresholds in squared space in one pass — identical decisions to testing
// rows one at a time.
func (l *Linear) RangeAppend(q geom.Point, eps float64, buf []int) []int {
	return l.store.VerifyIntervalSq(q, 0, l.store.Len(), eps*eps, buf[:0])
}
