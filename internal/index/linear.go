package index

import "github.com/dbdc-go/dbdc/internal/geom"

// Linear is the exhaustive-scan index: all of its store's rows in one leaf,
// in row order, under the store's bounding box, so a neighbourhood walk
// verifies every row. It has next to no build cost and serves as the
// correctness oracle the tree's leaves are property-tested against.
type Linear struct {
	store *geom.Store
	ids   []int
	box   []float64
}

// NewLinearStore builds a linear index over the points of a flat store, which
// it retains: Point(i) serves zero-copy views into it.
func NewLinearStore(st *geom.Store) *Linear {
	l := &Linear{store: st, ids: make([]int, st.Len())}
	for i := range l.ids {
		l.ids[i] = i
	}
	if st.Len() > 0 {
		r := st.BoundingRect()
		l.box = append(r.Min, r.Max...)
	}
	return l
}

// Store implements Index.
func (l *Linear) Store() *geom.Store { return l.store }

// Len implements Index.
func (l *Linear) Len() int { return l.store.Len() }

// Point implements Index.
func (l *Linear) Point(i int) geom.Point { return l.store.Point(i) }

// NumLeaves implements Index: one leaf, none without rows.
func (l *Linear) NumLeaves() int { return min(l.store.Len(), 1) }

// Leaf implements Index: every id, in row order, and the store's bounding box.
func (l *Linear) Leaf(int) ([]int, []float64) { return l.ids, l.box }

// NearLeaves implements Index: the one leaf is near itself.
func (l *Linear) NearLeaves(_ int, _ float64, near []int32) []int32 { return append(near, 0) }
