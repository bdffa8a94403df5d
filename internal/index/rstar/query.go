package rstar

import (
	"container/heap"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// Range returns the indexes of all points within Euclidean distance eps of
// q, boundary inclusive. Subtrees are pruned with the MBR distance bound.
func (t *Tree) Range(q geom.Point, eps float64) []int {
	return t.RangeAppend(q, eps, nil)
}

// RangeAppend is Range writing into buf (reused after truncation to zero
// length), the allocation-free variant incremental DBSCAN uses. The R*-tree
// is Euclidean-only, so both the MBR pruning bound and the leaf verification
// run entirely in squared space (no sqrt on the hot path).
func (t *Tree) RangeAppend(q geom.Point, eps float64, buf []int) []int {
	out := buf[:0]
	if t.root != nil {
		out = t.rangeSearch(t.root, q, eps*eps, out)
	}
	if len(out) == 0 {
		return buf[:0] // nil stays nil: the fused verifiers grow out before they know the verdict
	}
	return out
}

// rangeSearch descends the nodes whose box lies within eps2 of q and hands
// each leaf reached to the fused verify kernel.
func (t *Tree) rangeSearch(n *node, q geom.Point, eps2 float64, out []int) []int {
	if n.leaf() {
		return t.rows.VerifyRangeSq(q, n.ids, eps2, out)
	}
	for i := range n.entries {
		if e := &n.entries[i]; e.rect.MinDistSq(q) <= eps2 {
			out = t.rangeSearch(e.child, q, eps2, out)
		}
	}
	return out
}

// RangeCount returns |N_eps(q)| without materialising the result slice.
// DBSCAN's core-object test only needs the cardinality.
func (t *Tree) RangeCount(q geom.Point, eps float64) int {
	if t.root == nil {
		return 0
	}
	return t.rangeCount(t.root, q, eps*eps)
}

func (t *Tree) rangeCount(n *node, q geom.Point, eps2 float64) int {
	count := 0
	for _, id := range n.ids {
		if t.rows.DistanceSqTo(id, q) <= eps2 {
			count++
		}
	}
	for _, e := range n.entries {
		if e.rect.MinDistSq(q) <= eps2 {
			count += t.rangeCount(e.child, q, eps2)
		}
	}
	return count
}

// pqItem is an element of the best-first search queue: either an internal
// node (child != nil) or a point (idx).
type pqItem struct {
	dist  float64
	child *node
	idx   int
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	x := old[n-1]
	*p = old[:n-1]
	return x
}

// KNN returns the indexes of the k points nearest to q in ascending distance
// order using best-first (Hjaltason/Samet) traversal. Fewer than k are
// returned when the tree is smaller.
func (t *Tree) KNN(q geom.Point, k int) []int {
	if t.root == nil || k <= 0 {
		return nil
	}
	frontier := pq{{dist: 0, child: t.root}}
	var out []int
	for frontier.Len() > 0 && len(out) < k {
		item := heap.Pop(&frontier).(pqItem)
		if item.child == nil {
			out = append(out, item.idx)
			continue
		}
		for _, id := range item.child.ids {
			heap.Push(&frontier, pqItem{dist: t.metric.Distance(q, t.rows.Point(id)), idx: id})
		}
		for _, e := range item.child.entries {
			heap.Push(&frontier, pqItem{dist: e.rect.MinDist(q), child: e.child})
		}
	}
	return out
}

// RangeRect returns the indexes of all points inside the query rectangle
// (boundaries inclusive) — the classic R-tree window query.
func (t *Tree) RangeRect(q geom.Rect) []int {
	if t.root == nil {
		return nil
	}
	var out []int
	t.windowSearch(t.root, q, &out)
	return out
}

func (t *Tree) windowSearch(n *node, q geom.Rect, out *[]int) {
	for _, id := range n.ids {
		if q.Contains(t.rows.Point(id)) {
			*out = append(*out, id)
		}
	}
	for _, e := range n.entries {
		if q.Intersects(e.rect) {
			t.windowSearch(e.child, q, out)
		}
	}
}
