package index

import (
	"container/heap"
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
// build permutation. Pruning uses only per-axis coordinate differences,
// which lower-bound every Minkowski distance, so the tree answers exact
// range and kNN queries for any Lp metric.
type KDTree struct {
	pts    []geom.Point
	metric geom.Metric
	dim    int
	nodes  []kdNode
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
	// store is the flat backing store of a Euclidean tree, nil under any
	// other metric: the range search then verifies each visited leaf bucket
	// through the batched Store kernel.
	store *geom.Store
}

// kdNode is either an internal split (axis >= 0: split plane, left/right are
// child slots) or a leaf bucket (axis < 0: left/right bound the owned range
// of the order permutation).
type kdNode struct {
	split       float64
	left, right int32
	axis        int8
}

// NewKDTree builds a k-d tree over pts, which must share one dimensionality.
// A nil metric defaults to Euclidean, under which pts are copied once into a
// flat store (see NewKDTreeStore); under any other metric the slice is
// retained, not copied.
func NewKDTree(pts []geom.Point, metric geom.Metric) (*KDTree, error) {
	st, err := storeFor(pts, metric)
	if err != nil {
		return nil, err
	}
	if st != nil {
		return NewKDTreeStore(st, metric), nil
	}
	return buildKDTree(pts, metric, nil), nil
}

// NewKDTreeStore builds a k-d tree over the points of a flat store. Point(i)
// serves zero-copy views into it; under the Euclidean metric the store is
// retained and the range search verifies candidates through the batched
// Store kernels.
func NewKDTreeStore(st *geom.Store, metric geom.Metric) *KDTree {
	metric, kept := retained(st, metric)
	return buildKDTree(st.Views(), metric, kept)
}

// buildKDTree builds the tree over pts (of validated uniform dimensionality).
func buildKDTree(pts []geom.Point, metric geom.Metric, st *geom.Store) *KDTree {
	t := &KDTree{pts: pts, metric: metric, store: st, root: -1}
	if len(pts) == 0 {
		return t
	}
	t.dim = pts[0].Dim()
	t.order = make([]int, len(pts))
	for i := range t.order {
		t.order[i] = i
	}
	t.nodes = make([]kdNode, 0, 2*(len(pts)/kdLeafSize)+2)
	t.root = t.build(0, len(pts), 0)
	t.computeBounds()
	return t
}

// computeBounds fills the per-node bounding boxes in one reverse pass over
// the slot array: build appends parents before children, so every child slot
// is numbered after its parent and a descending sweep sees children first.
// NaN coordinates never enter a box (they fail both min/max comparisons);
// that can only make pruning drop rows with NaN coordinates, which fail
// every distance threshold anyway.
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
				p := t.pts[id]
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
	kdSelect(t.pts, t.order[lo:hi], mid-lo, axis)
	slot := int32(len(t.nodes))
	t.nodes = append(t.nodes, kdNode{split: t.pts[t.order[mid]][axis], axis: int8(axis)})
	left := t.build(lo, mid, depth+1)
	right := t.build(mid, hi, depth+1)
	t.nodes[slot].left = left
	t.nodes[slot].right = right
	return slot
}

// kdSelect is an iterative Hoare quickselect with median-of-three pivoting:
// it permutes ord so ord[n] holds the n-th order statistic of the axis
// coordinate, everything before it is <= and everything after is >=. One
// selection is O(len(ord)) expected — the whole tree build O(n log n) with
// direct float comparisons, no sort.Slice closure dispatch.
func kdSelect(pts []geom.Point, ord []int, n, axis int) {
	lo, hi := 0, len(ord)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[ord[mid]][axis] < pts[ord[lo]][axis] {
			ord[mid], ord[lo] = ord[lo], ord[mid]
		}
		if pts[ord[hi]][axis] < pts[ord[lo]][axis] {
			ord[hi], ord[lo] = ord[lo], ord[hi]
		}
		if pts[ord[hi]][axis] < pts[ord[mid]][axis] {
			ord[hi], ord[mid] = ord[mid], ord[hi]
		}
		pivot := pts[ord[mid]][axis]
		i, j := lo, hi
		for i <= j {
			for pts[ord[i]][axis] < pivot {
				i++
			}
			for pts[ord[j]][axis] > pivot {
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
func (t *KDTree) Len() int { return len(t.pts) }

// Point implements Index.
func (t *KDTree) Point(i int) geom.Point { return t.pts[i] }

// Metric implements Index.
func (t *KDTree) Metric() geom.Metric { return t.metric }

// Range implements Index.
func (t *KDTree) Range(q geom.Point, eps float64) []int {
	return t.RangeAppend(q, eps, nil)
}

// RangeAppendID implements IDRangeAppender: the query point is addressed by
// object id, sparing the caller an interface Point round-trip per query.
func (t *KDTree) RangeAppendID(i int, eps float64, buf []int) []int {
	return t.RangeAppend(t.pts[i], eps, buf)
}

// RangeAppend implements RangeAppender. The per-axis subtree pruning is the
// same for both verification arms (coordinate gaps lower-bound every Lp
// distance).
func (t *KDTree) RangeAppend(q geom.Point, eps float64, buf []int) []int {
	out := buf[:0]
	if t.root < 0 {
		return out
	}
	switch {
	case t.store == nil:
		t.rangeSearch(t.root, q, eps, &out)
	case t.dim == 2:
		// The 2-d descent keeps the whole bound state in registers — the
		// dominant paper-data shape.
		out = t.rangeStore2(t.root, q[0], q[1], eps, eps*eps, 0, 0, out)
	default:
		out = t.rangeStore(t.root, q, eps, eps*eps, out)
	}
	return out
}

func (t *KDTree) rangeSearch(slot int32, q geom.Point, eps float64, out *[]int) {
	n := &t.nodes[slot]
	if n.axis < 0 {
		for _, id := range t.order[n.left:n.right] {
			if t.metric.Distance(q, t.pts[id]) <= eps {
				*out = append(*out, id)
			}
		}
		return
	}
	diff := q[n.axis] - n.split
	if diff <= eps {
		t.rangeSearch(n.left, q, eps, out)
	}
	if -diff <= eps {
		t.rangeSearch(n.right, q, eps, out)
	}
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

// knnCand is a max-heap entry so the current worst candidate sits on top.
type knnCand struct {
	idx  int
	dist float64
}

type knnHeap []knnCand

func (h knnHeap) Len() int            { return len(h) }
func (h knnHeap) Less(i, j int) bool  { return h[i].dist > h[j].dist }
func (h knnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *knnHeap) Push(x interface{}) { *h = append(*h, x.(knnCand)) }
func (h *knnHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// KNN implements KNNIndex.
func (t *KDTree) KNN(q geom.Point, k int) []int {
	if k <= 0 || len(t.pts) == 0 {
		return nil
	}
	h := make(knnHeap, 0, k+1)
	t.knnSearch(t.root, q, k, &h)
	out := make([]int, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(knnCand).idx
	}
	return out
}

func (t *KDTree) knnSearch(slot int32, q geom.Point, k int, h *knnHeap) {
	n := &t.nodes[slot]
	if n.axis < 0 {
		for _, id := range t.order[n.left:n.right] {
			d := t.metric.Distance(q, t.pts[id])
			if h.Len() < k {
				heap.Push(h, knnCand{id, d})
			} else if top := (*h)[0]; d < top.dist || (d == top.dist && id < top.idx) {
				(*h)[0] = knnCand{id, d}
				heap.Fix(h, 0)
			}
		}
		return
	}
	diff := q[n.axis] - n.split
	near, far := n.left, n.right
	if diff > 0 {
		near, far = far, near
	}
	t.knnSearch(near, q, k, h)
	// The far subtree can only matter if the axis gap does not already
	// exceed the current worst candidate distance.
	if h.Len() < k || math.Abs(diff) <= (*h)[0].dist {
		t.knnSearch(far, q, k, h)
	}
}
