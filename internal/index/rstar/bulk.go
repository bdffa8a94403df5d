package rstar

import (
	"fmt"
	"math"
	"slices"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// NewBulkStore builds an R*-tree over the points of a flat store with
// Sort-Tile-Recursive (STR) bulk loading (Leutenegger, Lopez, Edgington
// 1997): points are tiled into fully packed, minimally overlapping leaves,
// then the upper levels are packed the same way. Bulk loading is an order of
// magnitude faster than repeated insertion and yields better query
// performance, so it is the build for the static site data DBSCAN runs over;
// dynamic workloads (incremental DBSCAN) use New and Insert instead.
//
// The tree is built in packed form (see packed): one id permutation and, per
// level, a flat node and bounds array. RangeAppend and RangeAppendID descend
// those arrays and verify each surviving leaf — a slice of the permutation —
// on the strided Store kernels. Everything else a Tree offers runs on
// pointer nodes, which the first call that needs them materialises from the
// packed levels, once, node for node the tree STR describes. Further Inserts
// (and ReplaceAt, Delete) into a bulk-loaded tree are therefore valid: they
// materialise, drop the packed form, copy the store — which stays the
// caller's, unwritten — and carry on as on a tree grown by insertion.
//
// Point(i) serves zero-copy views into the store; the build copies no
// coordinates, only the routing-level bounds are new floats.
//
// epsHint, when given, is the radius the tree expects to be queried at: by-id
// queries up to it start at the query point's own leaf (see packed.near).
func NewBulkStore(st *geom.Store, maxEntries int, epsHint ...float64) (*Tree, error) {
	t, err := newTree(maxEntries)
	if err != nil || st.Len() == 0 {
		return t, err
	}
	if !st.IsFinite() {
		for i, n := 0, st.Len(); i < n; i++ {
			if p := st.Point(i); !p.IsFinite() {
				return nil, fmt.Errorf("rstar: non-finite point %v at index %d", p, i)
			}
		}
	}
	t.dim = st.Dim()
	t.size = st.Len()
	t.rows = st
	t.packed = packSTR(st, maxEntries)
	if len(epsHint) > 0 {
		t.packed.linkLeaves(epsHint[0])
	}
	return t, nil
}

// packed is the bulk-loaded form of a tree. Leaf i owns the point ids
// perm[first:first+count] of levels[0].spans[i]; a node of levels[l], l > 0,
// owns that run of levels[l-1]. The root is not stored: it sits one level
// above the last stored one and owns all of it — all of perm when the points
// fit a single leaf and levels is empty; rootCount is how many that makes.
//
// leafOf names the leaf of every id (nil when the root is the only leaf).
// near[nearEnd[i]:nearEnd[i+1]] lists the leaves whose box lies within
// sqrt(nearEps2) of leaf i's box, in a descent's visit order, adjacent ones as
// one span: a point lies inside its leaf's box and rounding is monotone, so up
// to that radius the leaves a descent for the point would reach are among
// them, and a by-id query tests those alone — same test, same order. Without
// the table (see linkLeaves) nearEps2 is negative.
type packed struct {
	dim       int
	perm      []int
	levels    []packedLevel
	rootCount int32
	leafOf    []int32
	near      []span
	nearEnd   []int32
	nearEps2  float64
}

type span struct{ first, count int32 }

// packedLevel holds the nodes of one level in left-to-right order: what each
// owns of the level below, and its bounding box as 2·dim floats, the Min
// corner then the Max corner.
type packedLevel struct {
	spans  []span
	bounds []float64
}

// packSTR tiles the store's rows bottom-up until one node can hold what is
// left. Level 0 tiles perm in place over the rows themselves (a point is its
// own degenerate box); every further level tiles a permutation of the nodes
// just formed over their bounds, and then moves those nodes into the tiled
// order so that each parent's children are contiguous.
func packSTR(st *geom.Store, maxEntries int) *packed {
	dim := st.Dim()
	p := &packed{dim: dim, perm: identity(st.Len()), nearEps2: -1}
	tl := tiler{boxes: st.Coords(), stride: dim, dim: dim, maxEntries: maxEntries, keys: make([]sortKey, 0, st.Len()), swap: make([]sortKey, st.Len())}
	order := p.perm
	for len(order) > maxEntries {
		tl.spans = make([]span, 0, (len(order)+maxEntries-1)/maxEntries)
		tl.tile(order, 0, 0)
		lv := packedLevel{spans: tl.spans, bounds: make([]float64, 2*dim*len(tl.spans))}
		for i, s := range lv.spans {
			tl.bound(order[s.first:s.first+s.count], lv.bounds[2*dim*i:2*dim*(i+1)])
		}
		if len(p.levels) > 0 {
			p.levels[len(p.levels)-1].permute(order, dim)
		}
		p.levels = append(p.levels, lv)
		tl.boxes, tl.stride, tl.maxOff = lv.bounds, 2*dim, dim
		order = identity(len(lv.spans))
	}
	p.rootCount = int32(len(order))
	if len(p.levels) > 0 {
		p.leafOf = make([]int32, len(p.perm))
		for i, s := range p.levels[0].spans {
			for _, id := range p.perm[s.first : s.first+s.count] {
				p.leafOf[id] = int32(i)
			}
		}
	}
	return p
}

// linkLeaves builds near for radii up to eps — unless eps is not positive and
// finite, the root is the only leaf, or near would hold more spans than there
// are points (many scattered near leaves each: high dimensions, a wide radius).
func (p *packed) linkLeaves(eps float64) {
	if !(eps > 0) || math.IsInf(eps, 1) || len(p.levels) == 0 {
		return
	}
	leaves, w := &p.levels[0], 2*p.dim
	near, nearEnd := []span(nil), make([]int32, 1, len(leaves.spans)+1)
	for i := range leaves.spans {
		near = p.reach(len(p.levels), 0, p.rootCount, leaves.bounds[w*i:w*(i+1)], eps*eps, near, len(near))
		if len(near) > len(p.perm) {
			return
		}
		nearEnd = append(nearEnd, int32(len(near)))
	}
	p.near, p.nearEnd, p.nearEps2 = near, nearEnd, eps*eps
}

// reach appends to near[from:] the leaves under the children [first,
// first+count) of a node at level whose boxes lie within eps2 of box.
func (p *packed) reach(level int, first, count int32, box []float64, eps2 float64, near []span, from int) []span {
	lv, w, lo, hi := &p.levels[level-1], 2*p.dim, box[:p.dim], box[p.dim:]
	for i := first; i < first+count; i++ {
		switch last := len(near) - 1; {
		case gapSq(lo, hi, lv.bounds[w*int(i):w*int(i+1)]) > eps2:
		case level > 1:
			near = p.reach(level-1, lv.spans[i].first, lv.spans[i].count, box, eps2, near, from)
		case last >= from && near[last].first+near[last].count == i:
			near[last].count++
		default:
			near = append(near, span{first: i, count: 1})
		}
	}
	return near
}

// gapSq is Rect.MinDistSq's operation chain from the box [lo, hi] — the point
// q when both are q — to the box b, Min corner then Max corner.
func gapSq(lo, hi, b []float64) float64 {
	var sum float64
	hi, mn, mx := hi[:len(lo)], b[:len(lo)], b[len(b)/2:][:len(lo)]
	for d, v := range lo {
		var g float64
		switch {
		case hi[d] < mn[d]:
			g = mn[d] - hi[d]
		case v > mx[d]:
			g = v - mx[d]
		}
		sum += g * g
	}
	return sum
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// permute moves node order[i] to slot i.
func (lv *packedLevel) permute(order []int, dim int) {
	spans := make([]span, len(order))
	bounds := make([]float64, len(lv.bounds))
	w := 2 * dim
	for i, from := range order {
		spans[i] = lv.spans[from]
		copy(bounds[w*i:w*(i+1)], lv.bounds[w*from:w*(from+1)])
	}
	lv.spans, lv.bounds = spans, bounds
}

// tiler STR-tiles ids of boxes laid out at a fixed stride: box id has its
// Min corner at boxes[id*stride:] and its Max corner maxOff floats further
// on (0 for the rows of a store, which are their own two corners).
type tiler struct {
	boxes           []float64
	stride, maxOff  int
	dim, maxEntries int
	spans           []span
	keys, swap      []sortKey // tile's scratch, each with room for every id
}

type sortKey struct {
	key uint64 // keyBits of the box centre, doubled, along the axis
	id  int
}

const insertionSortMax = 64

// tile sorts ids — which sit at offset base of the level being tiled — by
// box centre along axis d, cuts them into slabs sized so that the remaining
// axes can finish the job, and recurses into each slab on the next axis; the
// last axis (or a run one node can hold) is cut into nodes. The order is
// ascending centre key, ties in arrival order (sortKeys).
func (tl *tiler) tile(ids []int, base, d int) {
	lo, hi := tl.boxes[d:], tl.boxes[tl.maxOff+d:]
	keys := tl.keys[:0]
	for _, a := range ids {
		keys = append(keys, sortKey{keyBits(lo[a*tl.stride] + hi[a*tl.stride]), a})
	}
	for i, k := range sortKeys(keys, tl.swap) {
		ids[i] = k.id
	}
	if d == tl.dim-1 || len(ids) <= tl.maxEntries {
		tl.chunkBalanced(base, len(ids))
		return
	}
	slabs := slabCount((len(ids)+tl.maxEntries-1)/tl.maxEntries, tl.dim-d)
	slabSize := (len(ids) + slabs - 1) / slabs
	for start := 0; start < len(ids); start += slabSize {
		end := start + slabSize
		if end > len(ids) {
			end = len(ids)
		}
		tl.tile(ids[start:end], base+start, d+1)
	}
}

// slabCount is the smallest s with s^axes ≥ pages, in integers: math.Pow reads
// the cube root of 125 as 5.000000000000001, and its ceiling cut a sixth slab.
func slabCount(pages, axes int) int {
	for s := 1; ; s++ {
		for p, i := 1, 0; i < axes; i++ {
			if p *= s; p >= pages {
				return s
			}
		}
	}
}

// keyBits is the image of k under which unsigned order is float order, −0.0
// tying with +0.0; k is a sum of finite coordinates, so never NaN.
func keyBits(k float64) uint64 {
	if k == 0 {
		k = 0
	}
	b := math.Float64bits(k)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortKeys sorts keys ascending, equal keys in arrival order, and returns the
// sorted slice, which is keys or swap[:len(keys)]: an LSD radix sort, one
// byte a pass and no pass for a byte every key shares, over histograms of one
// sweep; up to insertionSortMax keys, where the histograms would cost more than
// the sort (measured: even at 96), a stable insertion sort.
func sortKeys(keys, swap []sortKey) []sortKey {
	if len(keys) <= insertionSortMax {
		for i := 1; i < len(keys); i++ {
			k, j := keys[i], i
			for ; j > 0 && keys[j-1].key > k.key; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
		return keys
	}
	var count [8][256]int32
	for _, k := range keys {
		for d := range count {
			count[d][byte(k.key>>(8*d))]++
		}
	}
	swap = swap[:len(keys)]
	for d := range count {
		c := &count[d]
		if int(c[byte(keys[0].key>>(8*d))]) == len(keys) {
			continue
		}
		var sum int32
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, k := range keys {
			b := byte(k.key >> (8 * d))
			swap[c[b]] = k
			c[b]++
		}
		keys, swap = swap, keys
	}
	return keys
}

// chunkBalanced cuts the n ids at offset base into ceil(n/maxEntries)
// consecutive nodes whose sizes differ by at most one, so even the smallest
// meets the 40% minimum fill whenever a cut is needed at all.
func (tl *tiler) chunkBalanced(base, n int) {
	k := (n + tl.maxEntries - 1) / tl.maxEntries
	size, rem := n/k, n%k
	for i := 0; i < k; i++ {
		count := size
		if i < rem {
			count++
		}
		tl.spans = append(tl.spans, span{first: int32(base), count: int32(count)})
		base += count
	}
}

// bound writes the bounding box of the given boxes to out, folding them in
// order like node.mbr.
func (tl *tiler) bound(ids []int, out []float64) {
	mn, mx := out[:tl.dim], out[tl.dim:]
	for i, id := range ids {
		lo := tl.boxes[id*tl.stride:]
		hi := lo[tl.maxOff:]
		if i == 0 {
			copy(mn, lo)
			copy(mx, hi)
			continue
		}
		for d := range mn {
			if lo[d] < mn[d] {
				mn[d] = lo[d]
			}
			if hi[d] > mx[d] {
				mx[d] = hi[d]
			}
		}
	}
}

// descend appends the ids within eps2 of q under the children [first,
// first+count) of a node at the given level, left to right. A child is entered
// when Rect.MinDistSq of its box — the same operation chain, spelled out for
// two dimensions — is at most eps2, and a leaf hands its slice of perm to the
// fused verify kernel — unless out holds enough ids and unseen none of the
// leaf's (index.UnseenRangeAppender's rule; enough = math.MaxInt is no rule).
// Without a store a leaf is not verified: its number goes to out instead.
func (p *packed) descend(st *geom.Store, level int, first, count int32, q geom.Point, eps2 float64, enough int, unseen []int32, out []int) []int {
	if level == 0 {
		return st.VerifyRangeSq(q, p.perm[first:first+count], eps2, out)
	}
	lv, w := &p.levels[level-1], 2*p.dim
	bounds := lv.bounds[w*int(first) : w*int(first+count)]
	for i := int(first); len(bounds) >= w; i, bounds = i+1, bounds[w:] {
		b := bounds[:w]
		var sum float64
		if len(b) != 4 {
			sum = gapSq(q, q, b)
		} else {
			var d0, d1 float64
			switch q0 := q[0]; {
			case q0 < b[0]:
				d0 = b[0] - q0
			case q0 > b[2]:
				d0 = q0 - b[2]
			}
			switch q1 := q[1]; {
			case q1 < b[1]:
				d1 = b[1] - q1
			case q1 > b[3]:
				d1 = q1 - b[3]
			}
			sum = d0*d0 + d1*d1
		}
		if sum > eps2 || level == 1 && len(out) >= enough && unseen[i] == 0 {
			continue
		}
		if s := lv.spans[i]; level > 1 || st != nil {
			out = p.descend(st, level-1, s.first, s.count, q, eps2, enough, unseen, out)
		} else {
			out = append(out, i)
		}
	}
	return out
}

// pointerNodes builds the pointer form of the packed tree and returns its
// root. Leaves alias perm and routing rectangles alias the packed bounds —
// both are written in place only once the packed form is gone — and every
// node's slice is capped at its own length, so a later append moves it
// instead of overwriting its neighbour.
func (p *packed) pointerNodes() *node {
	var entries []entry
	for l, lv := range p.levels {
		nodes := make([]node, len(lv.spans))
		parents := make([]entry, len(lv.spans))
		for i, s := range lv.spans {
			end := s.first + s.count
			nodes[i].level = l
			if l == 0 {
				nodes[i].ids = p.perm[s.first:end:end]
			} else {
				nodes[i].entries = entries[s.first:end:end]
			}
			b := lv.bounds[2*p.dim*i : 2*p.dim*(i+1)]
			parents[i] = entry{
				rect:  geom.Rect{Min: b[:p.dim:p.dim], Max: b[p.dim : 2*p.dim : 2*p.dim]},
				child: &nodes[i],
			}
		}
		entries = parents
	}
	if len(p.levels) == 0 {
		return &node{ids: slices.Clip(p.perm)}
	}
	return &node{level: len(p.levels), entries: entries}
}
