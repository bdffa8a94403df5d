// Package mtree implements the M-tree of Ciaccia, Patella and Zezula
// (VLDB 1997), a dynamic access method for arbitrary metric spaces. The
// DBDC paper points out that DBSCAN "can be used for all kinds of metric
// data spaces and is not confined to vector spaces"; the M-tree is the
// access method that makes ε-range queries efficient in that general
// setting, pruning subtrees purely through the triangle inequality.
package mtree

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// DefaultMaxEntries is the default node fan-out.
const DefaultMaxEntries = 16

// Tree is an M-tree over points under a caller-supplied metric.
type Tree struct {
	metric     geom.Metric
	maxEntries int
	root       *node
	pts        []geom.Point
	size       int
	// euclid marks the Euclidean metric, whose range queries run in squared
	// space: batched over the store, or per entry through
	// geom.SquaredEuclidean once an Insert has demoted the store.
	euclid bool
	// distCalls counts metric evaluations; exposed for ablation benches.
	// Updated atomically: the tree serves range queries from concurrent
	// readers (e.g. the workers of dbscan.Run).
	distCalls int64
	// store is the flat backing store of a statically built Euclidean tree,
	// nil under any other metric. Every pivot is then a zero-copy view into
	// it, so the distance kernels stream contiguous rows; Insert demotes it
	// to nil (inserted points live outside the store).
	store *geom.Store
	// scratch pools the batched-search candidate and distance buffers so
	// concurrent store-backed range queries stay allocation-free.
	scratch sync.Pool
}

// entry is a routing entry (child != nil) or a ground entry (point index).
// parentDist is the distance to the parent routing object, used for the
// triangle-inequality pre-filter.
type entry struct {
	pivot      geom.Point
	radius     float64 // covering radius; 0 for ground entries
	parentDist float64
	child      *node
	idx        int32
}

type node struct {
	entries []entry
	parent  *node
	// parentEntry indexes the routing entry in parent that points here.
	leaf bool
}

// New builds an M-tree over pts with the given metric (nil defaults to
// Euclidean) and default fan-out.
func New(pts []geom.Point, metric geom.Metric) (*Tree, error) {
	return NewWithFanout(pts, metric, DefaultMaxEntries)
}

// NewWithFanout builds an M-tree with node capacity maxEntries (minimum 4).
// Under the Euclidean metric a non-empty pts is copied once into a flat
// store and built by NewFromStoreWithFanout, so a statically built Euclidean
// tree always answers through the store kernels.
func NewWithFanout(pts []geom.Point, metric geom.Metric, maxEntries int) (*Tree, error) {
	t, err := newTree(metric, maxEntries)
	if err != nil {
		return nil, err
	}
	if t.euclid && len(pts) > 0 {
		st, err := geom.FromPoints(pts)
		if err != nil {
			return nil, err
		}
		return NewFromStoreWithFanout(st, metric, maxEntries)
	}
	for _, p := range pts {
		if err := t.Insert(p); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// NewFromStore builds an M-tree over the points of a flat store with the
// default fan-out. Every inserted point is a zero-copy view into the store
// (one slice header per point, no coordinate copies), so ground entries and
// promoted routing pivots all read from the contiguous backing array.
func NewFromStore(st *geom.Store, metric geom.Metric) (*Tree, error) {
	return NewFromStoreWithFanout(st, metric, DefaultMaxEntries)
}

// NewFromStoreWithFanout is NewFromStore with an explicit node capacity.
func NewFromStoreWithFanout(st *geom.Store, metric geom.Metric, maxEntries int) (*Tree, error) {
	t, err := newTree(metric, maxEntries)
	if err != nil {
		return nil, err
	}
	for i, n := 0, st.Len(); i < n; i++ {
		if err := t.Insert(st.Point(i)); err != nil {
			return nil, err
		}
	}
	// Set after the build loop: Insert demotes the store on every call so
	// user insertions past the store cannot leave a stale id mapping.
	if t.euclid {
		t.store = st
	}
	return t, nil
}

// newTree returns an empty tree.
func newTree(metric geom.Metric, maxEntries int) (*Tree, error) {
	if maxEntries < 4 {
		return nil, fmt.Errorf("mtree: max entries %d < 4", maxEntries)
	}
	if metric == nil {
		metric = geom.Euclidean{}
	}
	t := &Tree{metric: metric, maxEntries: maxEntries}
	_, t.euclid = metric.(geom.Euclidean)
	return t, nil
}

// Store returns the flat backing store of a store-built tree, or nil. It is
// nil after any post-build Insert: inserted points are not store rows, so
// the id ↔ row correspondence no longer holds.
func (t *Tree) Store() *geom.Store { return t.store }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Point returns the i-th indexed point.
func (t *Tree) Point(i int) geom.Point { return t.pts[i] }

// Metric returns the metric the tree was built with.
func (t *Tree) Metric() geom.Metric { return t.metric }

// DistanceCalls returns the number of metric evaluations performed since
// construction (insertions and queries).
func (t *Tree) DistanceCalls() int64 { return atomic.LoadInt64(&t.distCalls) }

func (t *Tree) dist(a, b geom.Point) float64 {
	atomic.AddInt64(&t.distCalls, 1)
	return t.metric.Distance(a, b)
}

// distSq is the squared-space counterpart of dist for the Euclidean tree.
// Squared evaluations count like plain ones: the ablation benches compare
// metric evaluations, and one squared distance stands for one would-be
// Distance.
func (t *Tree) distSq(a, b geom.Point) float64 {
	atomic.AddInt64(&t.distCalls, 1)
	return geom.SquaredEuclidean(a, b)
}

// Insert adds a point to the tree.
func (t *Tree) Insert(p geom.Point) error {
	if !p.IsFinite() {
		return fmt.Errorf("mtree: non-finite point %v", p)
	}
	// The tree is growing past its flat store (if any); drop the store
	// association rather than serve stale row ids.
	t.store = nil
	// Validate dimensionality once at insert time; the distance kernels skip
	// their per-call checks (hoisted hot-path guard, see geom/checks.go).
	if len(t.pts) > 0 && p.Dim() != t.pts[0].Dim() {
		return fmt.Errorf("mtree: point dimensionality %d, tree has %d", p.Dim(), t.pts[0].Dim())
	}
	idx := int32(len(t.pts))
	t.pts = append(t.pts, p)
	t.size++
	if t.root == nil {
		t.root = &node{leaf: true}
	}
	t.insertAt(t.descend(t.root, p), entry{pivot: p, idx: idx})
	return nil
}

// descend walks to the leaf best suited for p: prefer the routing entry
// whose ball already covers p (smallest distance), otherwise the one whose
// radius grows least.
func (t *Tree) descend(n *node, p geom.Point) *node {
	for !n.leaf {
		bestIn, bestInDist := -1, math.Inf(1)
		bestOut, bestOutGrow := -1, math.Inf(1)
		for i := range n.entries {
			e := &n.entries[i]
			d := t.dist(e.pivot, p)
			if d <= e.radius {
				if d < bestInDist {
					bestIn, bestInDist = i, d
				}
			} else if grow := d - e.radius; grow < bestOutGrow {
				bestOut, bestOutGrow = i, grow
			}
		}
		var chosen int
		if bestIn >= 0 {
			chosen = bestIn
		} else {
			chosen = bestOut
			n.entries[chosen].radius += bestOutGrow
		}
		n = n.entries[chosen].child
	}
	return n
}

// insertAt places e in leaf (or internal node during split promotion) and
// splits on overflow.
func (t *Tree) insertAt(n *node, e entry) {
	n.entries = append(n.entries, e)
	if e.child != nil {
		e.child.parent = n
	}
	if len(n.entries) > t.maxEntries {
		t.split(n)
	} else {
		t.updateRadii(n)
	}
}

// updateRadii propagates covering-radius growth and parent distances from n
// up to the root.
func (t *Tree) updateRadii(n *node) {
	for n.parent != nil {
		parent := n.parent
		pe := parentEntryOf(parent, n)
		// Recompute the covering radius of the routing entry for n.
		var r float64
		for i := range n.entries {
			d := t.dist(pe.pivot, n.entries[i].pivot)
			n.entries[i].parentDist = d
			if d+n.entries[i].radius > r {
				r = d + n.entries[i].radius
			}
		}
		if r > pe.radius {
			pe.radius = r
		}
		n = parent
	}
}

func parentEntryOf(parent, child *node) *entry {
	for i := range parent.entries {
		if parent.entries[i].child == child {
			return &parent.entries[i]
		}
	}
	panic("mtree: child not registered in parent")
}

// split divides an overflowing node using the mM_RAD promotion heuristic
// (choose the pivot pair minimising the larger covering radius) and
// generalized-hyperplane partitioning.
func (t *Tree) split(n *node) {
	es := n.entries
	// Promotion: sample pivot pairs. For modest fan-outs an exhaustive scan
	// is affordable and gives the best split quality.
	bestI, bestJ, bestScore := 0, 1, math.Inf(1)
	for i := 0; i < len(es); i++ {
		for j := i + 1; j < len(es); j++ {
			r1, r2 := t.partitionRadii(es, i, j)
			score := math.Max(r1, r2)
			if score < bestScore {
				bestI, bestJ, bestScore = i, j, score
			}
		}
	}
	p1, p2 := es[bestI].pivot, es[bestJ].pivot
	var g1, g2 []entry
	var r1, r2 float64
	for _, e := range es {
		d1, d2 := t.dist(p1, e.pivot), t.dist(p2, e.pivot)
		if d1 <= d2 {
			e.parentDist = d1
			g1 = append(g1, e)
			if d1+e.radius > r1 {
				r1 = d1 + e.radius
			}
		} else {
			e.parentDist = d2
			g2 = append(g2, e)
			if d2+e.radius > r2 {
				r2 = d2 + e.radius
			}
		}
	}
	if len(g1) == 0 || len(g2) == 0 {
		// Degenerate promotion (e.g. every entry equidistant from both
		// pivots, which happens with duplicate-heavy data): hyperplane
		// partitioning put everything on one side. Fall back to a balanced
		// split so no empty node enters the tree.
		all := g1
		if len(all) == 0 {
			all = g2
		}
		mid := len(all) / 2
		g1, g2 = all[:mid:mid], all[mid:]
		r1, r2 = 0, 0
		for _, e := range g1 {
			if d := t.dist(p1, e.pivot) + e.radius; d > r1 {
				r1 = d
			}
		}
		for _, e := range g2 {
			if d := t.dist(p2, e.pivot) + e.radius; d > r2 {
				r2 = d
			}
		}
	}
	n1 := &node{leaf: n.leaf, entries: g1, parent: n.parent}
	n2 := &node{leaf: n.leaf, entries: g2, parent: n.parent}
	for i := range g1 {
		if g1[i].child != nil {
			g1[i].child.parent = n1
		}
	}
	for i := range g2 {
		if g2[i].child != nil {
			g2[i].child.parent = n2
		}
	}
	e1 := entry{pivot: p1, radius: r1, child: n1}
	e2 := entry{pivot: p2, radius: r2, child: n2}
	if n.parent == nil {
		t.root = &node{leaf: false}
		n1.parent, n2.parent = t.root, t.root
		t.root.entries = []entry{e1, e2}
		return
	}
	parent := n.parent
	// Replace the routing entry for n with e1 and add e2.
	pe := parentEntryOf(parent, n)
	*pe = e1
	n1.parent = parent
	t.insertAt(parent, e2)
}

// partitionRadii computes the two covering radii that result from promoting
// entries i and j and assigning every entry to its nearer pivot.
func (t *Tree) partitionRadii(es []entry, i, j int) (float64, float64) {
	p1, p2 := es[i].pivot, es[j].pivot
	var r1, r2 float64
	for _, e := range es {
		d1, d2 := t.dist(p1, e.pivot), t.dist(p2, e.pivot)
		if d1 <= d2 {
			if d1+e.radius > r1 {
				r1 = d1 + e.radius
			}
		} else {
			if d2+e.radius > r2 {
				r2 = d2 + e.radius
			}
		}
	}
	return r1, r2
}

// Range returns the indexes of all points within distance eps of q,
// boundary inclusive.
func (t *Tree) Range(q geom.Point, eps float64) []int {
	return t.RangeAppend(q, eps, nil)
}

// RangeAppend is Range writing into buf (truncated to zero length first) —
// the allocation-free variant used through index.RangeInto. Under the
// Euclidean metric the whole traversal runs sqrt-free: the
// triangle-inequality prune d − radius ≤ eps is evaluated as
// d² ≤ (eps+radius)², which is equivalent for the non-negative quantities
// involved.
func (t *Tree) RangeAppend(q geom.Point, eps float64, buf []int) []int {
	out := buf[:0]
	if t.root == nil {
		return out
	}
	switch {
	case t.store != nil:
		out = t.rangeSearchStore(q, eps, eps*eps, out)
	case t.euclid:
		t.rangeSearchSq(t.root, q, eps, eps*eps, &out)
	default:
		t.rangeSearch(t.root, q, eps, &out)
	}
	return out
}

// RangeAppendID implements index.IDRangeAppender: the query point is
// addressed by object id, sparing the caller an interface Point round-trip
// per query.
func (t *Tree) RangeAppendID(i int, eps float64, buf []int) []int {
	return t.RangeAppend(t.pts[i], eps, buf)
}

// mtScratch is the pooled per-query state of the batched store search.
type mtScratch struct {
	cand []int
}

// rangeSearchStore is rangeSearchSq for the store-backed Euclidean tree:
// the triangle-inequality descent is unchanged (routing pivots are tested
// one at a time — each verdict gates a recursion), but ground entries of
// surviving leaves are collected and verified through the batched Store
// kernel in one fused sweep — identical decisions and visit order to the
// per-entry path; the leaf distance evaluations are accounted to distCalls
// in one atomic add per query instead of one per entry.
func (t *Tree) rangeSearchStore(q geom.Point, eps, eps2 float64, out []int) []int {
	s, _ := t.scratch.Get().(*mtScratch)
	if s == nil {
		s = &mtScratch{}
	}
	cand := t.collectStore(t.root, q, eps, s.cand[:0])
	atomic.AddInt64(&t.distCalls, int64(len(cand)))
	out = t.store.VerifyRangeSq(q, cand, eps2, out)
	s.cand = cand
	t.scratch.Put(s)
	return out
}

// collectStore appends the ground-entry ids of every leaf reached by the
// triangle-inequality descent to cand.
func (t *Tree) collectStore(n *node, q geom.Point, eps float64, cand []int) []int {
	if n.leaf {
		for i := range n.entries {
			cand = append(cand, int(n.entries[i].idx))
		}
		return cand
	}
	for i := range n.entries {
		e := &n.entries[i]
		bound := eps + e.radius
		if t.distSq(q, e.pivot) <= bound*bound {
			cand = t.collectStore(e.child, q, eps, cand)
		}
	}
	return cand
}

func (t *Tree) rangeSearch(n *node, q geom.Point, eps float64, out *[]int) {
	for i := range n.entries {
		e := &n.entries[i]
		d := t.dist(q, e.pivot)
		if n.leaf {
			if d <= eps {
				*out = append(*out, int(e.idx))
			}
			continue
		}
		// Triangle inequality: the ball around e.pivot with radius e.radius
		// can only intersect the query ball if d - radius <= eps.
		if d-e.radius <= eps {
			t.rangeSearch(e.child, q, eps, out)
		}
	}
}

// rangeSearchSq is rangeSearch in squared space, the arm of a Euclidean tree
// whose store an Insert demoted. Leaf verification compares against eps²;
// routing entries against (eps + radius)².
func (t *Tree) rangeSearchSq(n *node, q geom.Point, eps, eps2 float64, out *[]int) {
	for i := range n.entries {
		e := &n.entries[i]
		d2 := t.distSq(q, e.pivot)
		if n.leaf {
			if d2 <= eps2 {
				*out = append(*out, int(e.idx))
			}
			continue
		}
		bound := eps + e.radius
		if d2 <= bound*bound {
			t.rangeSearchSq(e.child, q, eps, eps2, out)
		}
	}
}

// knnItem is a best-first queue element: an internal node (child != nil)
// with its optimistic distance bound, or a concrete point.
type knnItem struct {
	dist  float64
	child *node
	idx   int32
}

type knnQueue []knnItem

func (q knnQueue) Len() int            { return len(q) }
func (q knnQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q knnQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *knnQueue) Push(x interface{}) { *q = append(*q, x.(knnItem)) }
func (q *knnQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// KNN returns the indexes of the k points nearest to q in ascending
// distance order, using best-first traversal with the triangle-inequality
// bound max(0, d(q, pivot) − radius) for routing entries.
func (t *Tree) KNN(q geom.Point, k int) []int {
	if t.root == nil || k <= 0 {
		return nil
	}
	frontier := knnQueue{{dist: 0, child: t.root}}
	var out []int
	for frontier.Len() > 0 && len(out) < k {
		item := heap.Pop(&frontier).(knnItem)
		if item.child == nil {
			out = append(out, int(item.idx))
			continue
		}
		n := item.child
		for i := range n.entries {
			e := &n.entries[i]
			d := t.dist(q, e.pivot)
			if n.leaf {
				heap.Push(&frontier, knnItem{dist: d, idx: e.idx})
				continue
			}
			bound := d - e.radius
			if bound < 0 {
				bound = 0
			}
			heap.Push(&frontier, knnItem{dist: bound, child: e.child})
		}
	}
	return out
}
