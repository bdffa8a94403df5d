// Package mtree implements the M-tree of Ciaccia, Patella and Zezula
// (VLDB 1997), a dynamic access method for arbitrary metric spaces. The
// DBDC paper points out that DBSCAN "can be used for all kinds of metric
// data spaces and is not confined to vector spaces"; the M-tree is the
// access method that makes ε-range queries efficient in that general
// setting, pruning subtrees purely through the triangle inequality.
package mtree

import (
	"fmt"
	"math"
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
	// euclid marks the Euclidean metric, under which the build keeps the
	// flat store and range queries run in squared space over it.
	euclid bool
	// distCalls counts metric evaluations; exposed for ablation benches.
	// Updated atomically: the tree serves range queries from concurrent
	// readers (e.g. the workers of dbscan.Run).
	distCalls int64
	// store is the flat backing store a Euclidean tree is built from, nil
	// under any other metric. Every pivot is then a zero-copy view into it,
	// so the distance kernels stream contiguous rows, and perm holds the
	// leaves' ids, one span per leaf in DFS entry order, so a leaf the descent
	// reaches is verified in place.
	store *geom.Store
	perm  []int
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
	leaf    bool
	// first is where a leaf's ids start in the perm of a store-built tree;
	// they run for len(entries).
	first int32
}

// NewFromStore builds an M-tree over the points of a flat store under metric
// (nil defaults to Euclidean) with the default fan-out. It is the tree's one
// construction path, the one index.BuildStore takes once it has refused a
// store with a non-finite row: the rows must be finite. Every inserted point is a zero-copy view into the store (one slice header
// per point, no coordinate copies), so ground entries and promoted routing
// pivots all read from the contiguous backing array.
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
		if err := t.insert(st.Point(i)); err != nil {
			return nil, err
		}
	}
	if t.euclid {
		t.store, t.perm = st, make([]int, 0, t.size)
		if t.root != nil {
			t.layLeaves(t.root)
		}
	}
	return t, nil
}

// layLeaves appends the ids of the leaves under n to perm, in DFS entry order,
// and points each leaf at its span.
func (t *Tree) layLeaves(n *node) {
	if n.leaf {
		n.first = int32(len(t.perm))
		for i := range n.entries {
			t.perm = append(t.perm, int(n.entries[i].idx))
		}
		return
	}
	for i := range n.entries {
		t.layLeaves(n.entries[i].child)
	}
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

// Store returns the flat backing store of a Euclidean tree, or nil.
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

// insert adds a point to the tree under construction.
func (t *Tree) insert(p geom.Point) error {
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
	if t.store != nil {
		var verified int
		out, verified = t.descendStore(t.root, q, eps, eps*eps, out)
		atomic.AddInt64(&t.distCalls, int64(verified))
		return out
	}
	t.rangeSearch(t.root, q, eps, &out)
	return out
}

// RangeAppendID implements index.IDRangeAppender: the query point is
// addressed by object id, sparing the caller an interface Point round-trip
// per query.
func (t *Tree) RangeAppendID(i int, eps float64, buf []int) []int {
	return t.RangeAppend(t.pts[i], eps, buf)
}

// descendStore is rangeSearch in squared space for the Euclidean tree:
// routing entries are tested one at a time against (eps + radius)² — each
// verdict gates a recursion — and the span of perm a reached leaf owns goes
// to the fused Store kernel as it stands. It returns how many leaf ids it
// verified, which RangeAppend accounts to distCalls in one atomic add per
// query instead of one per entry.
func (t *Tree) descendStore(n *node, q geom.Point, eps, eps2 float64, out []int) ([]int, int) {
	if n.leaf {
		ids := t.perm[n.first : int(n.first)+len(n.entries)]
		return t.store.VerifyRangeSq(q, ids, eps2, out), len(ids)
	}
	verified := 0
	for i := range n.entries {
		e := &n.entries[i]
		bound := eps + e.radius
		if t.distSq(q, e.pivot) <= bound*bound {
			var k int
			out, k = t.descendStore(e.child, q, eps, eps2, out)
			verified += k
		}
	}
	return out, verified
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
