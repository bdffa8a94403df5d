package index

import (
	"math"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// kdLeafSize is the bucket capacity of the leaf nodes. Bucketed leaves trade
// tree depth for short linear scans: the traversal touches ~n/kdLeafSize
// internal nodes instead of n point-bearing ones, and every leaf hands the
// batched distance kernel a contiguous run of candidates. 16 keeps a 2-d
// leaf (16 rows × 16 B) inside two cache lines of ids.
const kdLeafSize = 16

// KDTree is a static bucketed k-d tree built by median splits (quickselect,
// not a full sort — O(n) per level). Internal nodes carry only the split
// plane; all points live in leaf buckets, stored as contiguous ranges of one
// build permutation. A query descends the split planes, gates each leaf on
// its bounding box and verifies the bucket on the strided Store kernels in
// squared space.
type KDTree struct {
	store *geom.Store
	dim   int
	nodes []kdNode
	// order is the build permutation; leaf node i owns order[left:right).
	// Kept as []int so a leaf bucket slices directly into the batched
	// verification call — no per-query id copying.
	order []int
	// bounds holds the tight per-node bounding box of every slot,
	// 2*dim floats per node (lo/hi interleaved per axis): leaves scan their
	// bucket, internal nodes take the union of their children. The store
	// traversal prunes on these boxes — strictly tighter than the split-plane
	// path gaps, since a node's box is contained in its descent region.
	bounds []float64
	root   int32
}

// kdNode is either an internal split (axis >= 0: split plane, left/right are
// child slots) or a leaf bucket (axis < 0: left/right bound the owned range
// of the order permutation).
type kdNode struct {
	split       float64
	left, right int32
	axis        int8
}

// NewKDTreeStore builds a k-d tree over the points of a flat store, which it
// retains: Point(i) serves zero-copy views into it and the range search
// verifies candidates through the batched Store kernels.
func NewKDTreeStore(st *geom.Store) *KDTree {
	t := &KDTree{store: st, root: -1}
	n := st.Len()
	if n == 0 {
		return t
	}
	t.dim = st.Dim()
	t.order = make([]int, n)
	for i := range t.order {
		t.order[i] = i
	}
	t.nodes = make([]kdNode, 0, 2*(n/kdLeafSize)+2)
	t.root = t.build(0, n, 0)
	t.computeBounds()
	return t
}

// computeBounds fills the per-node bounding boxes in one reverse pass over
// the slot array: build appends parents before children, so every child slot
// is numbered after its parent and a descending sweep sees children first.
func (t *KDTree) computeBounds() {
	t.bounds = make([]float64, 2*t.dim*len(t.nodes))
	for slot := len(t.nodes) - 1; slot >= 0; slot-- {
		n := &t.nodes[slot]
		b := t.bounds[slot*2*t.dim : (slot+1)*2*t.dim]
		for d := 0; d < t.dim; d++ {
			b[2*d] = math.Inf(1)
			b[2*d+1] = math.Inf(-1)
		}
		if n.axis < 0 {
			for _, id := range t.order[n.left:n.right] {
				p := t.store.Point(id)
				for d := 0; d < t.dim; d++ {
					if p[d] < b[2*d] {
						b[2*d] = p[d]
					}
					if p[d] > b[2*d+1] {
						b[2*d+1] = p[d]
					}
				}
			}
			continue
		}
		for _, c := range [2]int32{n.left, n.right} {
			cb := t.bounds[int(c)*2*t.dim:]
			for d := 0; d < t.dim; d++ {
				if cb[2*d] < b[2*d] {
					b[2*d] = cb[2*d]
				}
				if cb[2*d+1] > b[2*d+1] {
					b[2*d+1] = cb[2*d+1]
				}
			}
		}
	}
}

// build partitions order[lo:hi) around its median on the depth axis via
// quickselect and returns the slot of the created node. Ranges at or below
// the bucket size become leaves. The left child owns values <= split, the
// right child (which keeps the median element) values >= split, so the
// per-axis pruning tests are boundary-exact.
func (t *KDTree) build(lo, hi, depth int) int32 {
	if hi-lo <= kdLeafSize {
		slot := int32(len(t.nodes))
		t.nodes = append(t.nodes, kdNode{axis: -1, left: int32(lo), right: int32(hi)})
		return slot
	}
	axis := depth % t.dim
	mid := lo + (hi-lo)/2
	coords := t.store.Coords()
	kdSelect(coords[axis:], t.dim, t.order[lo:hi], mid-lo)
	slot := int32(len(t.nodes))
	t.nodes = append(t.nodes, kdNode{split: coords[t.order[mid]*t.dim+axis], axis: int8(axis)})
	left := t.build(lo, mid, depth+1)
	right := t.build(mid, hi, depth+1)
	t.nodes[slot].left = left
	t.nodes[slot].right = right
	return slot
}

// kdSelect is an iterative Hoare quickselect with median-of-three pivoting
// over the coordinates v[id*stride] — one axis of a store's backing array,
// offset by the axis: it permutes ord so ord[n] holds the n-th order
// statistic, everything before it is <= and everything after is >=. One
// selection is O(len(ord)) expected — the whole tree build O(n log n) with
// direct float comparisons, no sort.Slice closure dispatch.
func kdSelect(v []float64, stride int, ord []int, n int) {
	at := func(k int) float64 { return v[ord[k]*stride] }
	lo, hi := 0, len(ord)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if at(mid) < at(lo) {
			ord[mid], ord[lo] = ord[lo], ord[mid]
		}
		if at(hi) < at(lo) {
			ord[hi], ord[lo] = ord[lo], ord[hi]
		}
		if at(hi) < at(mid) {
			ord[hi], ord[mid] = ord[mid], ord[hi]
		}
		pivot := at(mid)
		i, j := lo, hi
		for i <= j {
			for at(i) < pivot {
				i++
			}
			for at(j) > pivot {
				j--
			}
			if i <= j {
				ord[i], ord[j] = ord[j], ord[i]
				i++
				j--
			}
		}
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			return
		}
	}
}

// Store implements StoreBacked.
func (t *KDTree) Store() *geom.Store { return t.store }

// Len implements Index.
func (t *KDTree) Len() int { return t.store.Len() }

// Point implements Index.
func (t *KDTree) Point(i int) geom.Point { return t.store.Point(i) }

// Metric implements Index.
func (t *KDTree) Metric() geom.Metric { return geom.Euclidean{} }

// Range implements Index.
func (t *KDTree) Range(q geom.Point, eps float64) []int {
	return t.RangeAppend(q, eps, nil)
}

// RangeAppendID implements IDRangeAppender: the query point is addressed by
// object id, sparing the caller an interface Point round-trip per query.
func (t *KDTree) RangeAppendID(i int, eps float64, buf []int) []int {
	return t.RangeAppend(t.store.Point(i), eps, buf)
}

// RangeAppend implements RangeAppender.
func (t *KDTree) RangeAppend(q geom.Point, eps float64, buf []int) []int {
	out := buf[:0]
	switch {
	case t.root < 0:
	case t.dim == 2:
		// The 2-d descent keeps the whole bound state in registers — the
		// dominant paper-data shape.
		out = t.rangeStore2(t.root, q[0], q[1], eps, eps*eps, 0, 0, out)
	default:
		out = t.rangeStore(t.root, q, eps, eps*eps, out)
	}
	return out
}

// boxGap is the per-axis separation from coordinate q to the interval
// [lo, hi] — zero inside. For every p in the interval, |fl(q−p)| ≥ the
// returned gap (the FP subtraction is monotone in p), so squared-gap sums
// in kernel order lower-bound every boxed row's computed squared distance.
// A NaN q yields gap 0 on the axis: no pruning, verdicts fall through to
// the kernels.
func boxGap(q, lo, hi float64) float64 {
	switch {
	case q < lo:
		return lo - q
	case q > hi:
		return q - hi
	}
	return 0
}

// rangeStore2 is rangeStore specialised to two dimensions: the per-axis
// path gaps travel as scalar arguments (g0, g1 — the separation accumulated
// from split crossings on the descent, which by region nesting never
// exceeds any subtree point's), the far side of a crossed split is skipped
// when the kernel-order gap sum fl(g0²+g1²) exceeds eps², and every leaf
// that survives is gated on its tight box. Both bounds run the exact
// operation chain of the 2-d kernel, so the pruning argument of rangeStore
// carries over verbatim.
func (t *KDTree) rangeStore2(slot int32, q0, q1, eps, eps2, g0, g1 float64, out []int) []int {
	n := &t.nodes[slot]
	if n.axis < 0 {
		b := t.bounds[slot*4 : slot*4+4]
		bg0 := boxGap(q0, b[0], b[1])
		bg1 := boxGap(q1, b[2], b[3])
		if bg0 > eps || bg1 > eps || bg0*bg0+bg1*bg1 > eps2 {
			return out
		}
		return t.store.VerifyRangeSq2(q0, q1, t.order[n.left:n.right], eps2, out)
	}
	var diff float64
	if n.axis == 0 {
		diff = q0 - n.split
	} else {
		diff = q1 - n.split
	}
	if diff <= eps {
		if diff <= 0 {
			out = t.rangeStore2(n.left, q0, q1, eps, eps2, g0, g1, out)
		} else if n.axis == 0 {
			if diff*diff+g1*g1 <= eps2 {
				out = t.rangeStore2(n.left, q0, q1, eps, eps2, diff, g1, out)
			}
		} else if g0*g0+diff*diff <= eps2 {
			out = t.rangeStore2(n.left, q0, q1, eps, eps2, g0, diff, out)
		}
	}
	if -diff <= eps {
		if diff >= 0 {
			out = t.rangeStore2(n.right, q0, q1, eps, eps2, g0, g1, out)
		} else if n.axis == 0 {
			if diff*diff+g1*g1 <= eps2 {
				out = t.rangeStore2(n.right, q0, q1, eps, eps2, -diff, g1, out)
			}
		} else if g0*g0+diff*diff <= eps2 {
			out = t.rangeStore2(n.right, q0, q1, eps, eps2, g0, -diff, out)
		}
	}
	return out
}

// rangeStore is the batched store traversal: a descent that hands every
// surviving leaf bucket — a ready-made slice of the build permutation, no id
// copying — to the fused Store kernel for verification. Subtrees are pruned
// on the split-plane distance during the descent, and every leaf that
// survives is gated on its tight bounding box: the per-axis gap from q to
// the box and the ascending-axis sum of the squared gaps — the exact
// operation chain of the distance kernel, over per-axis gaps that by
// FP-monotone subtraction never exceed any boxed row's — so a gated leaf
// provably contains no row the kernel would accept, and the surviving
// leaves' left-to-right verification order is untouched: the output is
// identical to the ungated walk.
func (t *KDTree) rangeStore(slot int32, q geom.Point, eps, eps2 float64, out []int) []int {
	n := &t.nodes[slot]
	if n.axis < 0 {
		b := t.bounds[int(slot)*2*t.dim:]
		// Squared gaps accumulate in ascending axis order — the distance
		// kernels' exact summation shape, so the bound is a true FP lower
		// bound on every boxed row's computed squared distance.
		var sum float64
		for d := 0; d < t.dim; d++ {
			g := boxGap(q[d], b[2*d], b[2*d+1])
			if g > eps {
				return out
			}
			sum += g * g
		}
		if sum > eps2 {
			return out
		}
		return t.store.VerifyRangeSq(q, t.order[n.left:n.right], eps2, out)
	}
	diff := q[n.axis] - n.split
	if diff <= eps {
		out = t.rangeStore(n.left, q, eps, eps2, out)
	}
	if -diff <= eps {
		out = t.rangeStore(n.right, q, eps, eps2, out)
	}
	return out
}
