package rstar

import (
	"container/heap"
	"math"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// Range returns the indexes of all points within Euclidean distance eps of
// q, boundary inclusive. Subtrees are pruned with the MBR distance bound.
func (t *Tree) Range(q geom.Point, eps float64) []int {
	return t.RangeAppend(q, eps, nil)
}

// RangeAppend is Range writing into buf (reused after truncation to zero
// length), the allocation-free variant the DBSCAN inner loop uses. The
// R*-tree is Euclidean-only, so both the MBR pruning bound and the leaf
// verification run entirely in squared space (no sqrt on the hot path). A
// bulk-loaded tree answers from its packed levels; both forms visit the same
// leaves in the same order and so return the same ids in the same order.
func (t *Tree) RangeAppend(q geom.Point, eps float64, buf []int) []int {
	return t.rangeAppend(q, -1, eps, math.MaxInt, nil, buf)
}

// RangeAppendID implements index.IDRangeAppender: the query point is
// addressed by object id, sparing the caller an interface Point round-trip
// per query.
func (t *Tree) RangeAppendID(i int, eps float64, buf []int) []int {
	return t.rangeAppend(t.rows.Point(i), i, eps, math.MaxInt, nil, buf)
}

// Leaves implements index.UnseenRangeAppender: the leaves of a bulk-loaded
// tree that has more than one, none of any other tree.
func (t *Tree) Leaves() (leafOf []int32, leaves int) {
	if t.packed == nil || t.packed.leafOf == nil {
		return nil, 0
	}
	return t.packed.leafOf, len(t.packed.levels[0].spans)
}

// Leaf implements index.UnseenRangeAppender.
func (t *Tree) Leaf(leaf int) []int {
	s := t.packed.levels[0].spans[leaf]
	return t.packed.perm[s.first : s.first+s.count]
}

// LeavesInReach implements index.UnseenRangeAppender: the leaves rangeAppend
// enters from the root, in its order — descend without a store to verify on.
func (t *Tree) LeavesInReach(q geom.Point, eps float64, out []int) []int {
	return t.packed.descend(nil, len(t.packed.levels), 0, t.packed.rootCount, q, eps*eps, math.MaxInt, nil, out)
}

// RangeAppendIDUnseen passes over a leaf with unseen[leaf] == 0 iff the result
// holds enough ids when the visit order reaches it.
func (t *Tree) RangeAppendIDUnseen(i int, eps float64, enough int, unseen []int32, buf []int) []int {
	return t.rangeAppend(t.rows.Point(i), i, eps, enough, unseen, buf)
}

// rangeAppend answers every ε-range query, q being the point of id when
// id ≥ 0: then, at a radius the leaf table covers, from the leaves near its own.
func (t *Tree) rangeAppend(q geom.Point, id int, eps float64, enough int, unseen []int32, buf []int) []int {
	out, eps2 := buf[:0], eps*eps
	if p := t.packed; p != nil {
		level, from := len(p.levels), []span{{0, p.rootCount}}
		if id >= 0 && eps2 <= p.nearEps2 {
			leaf := p.leafOf[id]
			level, from = 1, p.near[p.nearEnd[leaf]:p.nearEnd[leaf+1]]
		}
		for _, s := range from {
			out = p.descend(t.rows, level, s.first, s.count, q, eps2, enough, unseen, out)
		}
	} else if t.root != nil {
		out = t.rangeSearch(t.root, q, eps2, out)
	}
	if len(out) == 0 {
		return buf[:0] // nil stays nil: the fused verifiers grow out before they know the verdict
	}
	return out
}

// rangeSearch is the descent of the pointer form; a leaf goes to the fused
// verify kernel as a leaf of the packed form does.
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
	root := t.nodes()
	if root == nil {
		return 0
	}
	return t.rangeCount(root, q, eps*eps)
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
	root := t.nodes()
	if root == nil || k <= 0 {
		return nil
	}
	frontier := pq{{dist: 0, child: root}}
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
	root := t.nodes()
	if root == nil {
		return nil
	}
	var out []int
	t.windowSearch(root, q, &out)
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
