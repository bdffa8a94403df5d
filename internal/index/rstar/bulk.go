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
func NewBulkStore(st *geom.Store, maxEntries int) (*Tree, error) {
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
	return t, nil
}

// packed is the bulk-loaded form of a tree. Leaf i owns the point ids
// perm[first:first+count] of levels[0].spans[i]; a node of levels[l], l > 0,
// owns that run of levels[l-1]. The root is not stored: it sits one level
// above the last stored one and owns all of it — all of perm when the points
// fit a single leaf and levels is empty; rootCount is how many that makes.
type packed struct {
	dim       int
	perm      []int
	levels    []packedLevel
	rootCount int32
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
	p := &packed{dim: dim, perm: identity(st.Len())}
	tl := tiler{boxes: st.Coords(), stride: dim, dim: dim, maxEntries: maxEntries}
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
	return p
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
}

// tile sorts ids — which sit at offset base of the level being tiled — by
// box centre along axis d, cuts them into slabs sized so that the remaining
// axes can finish the job, and recurses into each slab on the next axis; the
// last axis (or a run one node can hold) is cut into nodes.
func (tl *tiler) tile(ids []int, base, d int) {
	lo, hi := tl.boxes[d:], tl.boxes[tl.maxOff+d:]
	stride := tl.stride
	slices.SortFunc(ids, func(a, b int) int {
		ca, cb := lo[a*stride]+hi[a*stride], lo[b*stride]+hi[b*stride]
		switch {
		case ca < cb:
			return -1
		case ca > cb:
			return 1
		}
		return 0
	})
	if d == tl.dim-1 || len(ids) <= tl.maxEntries {
		tl.chunkBalanced(base, len(ids))
		return
	}
	pages := (len(ids) + tl.maxEntries - 1) / tl.maxEntries
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(tl.dim-d))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := (len(ids) + slabs - 1) / slabs
	for start := 0; start < len(ids); start += slabSize {
		end := start + slabSize
		if end > len(ids) {
			end = len(ids)
		}
		tl.tile(ids[start:end], base+start, d+1)
	}
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

// range2 appends the ids within eps2 of (q0, q1) under the children
// [first, first+count) of a node at the given level, left to right: the
// 2-d descent, with the query held in scalars. A child is entered when
// Rect.MinDistSq of its box — the same operation chain — is at most eps2,
// and a leaf hands its slice of perm to the fused verify kernel.
func (p *packed) range2(st *geom.Store, level int, first, count int32, q0, q1, eps2 float64, out []int) []int {
	if level == 0 {
		return st.VerifyRangeSq2(q0, q1, p.perm[first:first+count], eps2, out)
	}
	lv := &p.levels[level-1]
	bounds := lv.bounds[4*int(first) : 4*int(first+count)]
	for i, s := range lv.spans[first : first+count] {
		b := bounds[4*i : 4*i+4]
		var d0, d1 float64
		switch {
		case q0 < b[0]:
			d0 = b[0] - q0
		case q0 > b[2]:
			d0 = q0 - b[2]
		}
		switch {
		case q1 < b[1]:
			d1 = b[1] - q1
		case q1 > b[3]:
			d1 = q1 - b[3]
		}
		if d0*d0+d1*d1 <= eps2 {
			out = p.range2(st, level-1, s.first, s.count, q0, q1, eps2, out)
		}
	}
	return out
}

// rangeN is range2 for any dimensionality.
func (p *packed) rangeN(st *geom.Store, level int, first, count int32, q geom.Point, eps2 float64, out []int) []int {
	if level == 0 {
		return st.VerifyRangeSq(q, p.perm[first:first+count], eps2, out)
	}
	lv := &p.levels[level-1]
	w := 2 * p.dim
	for i := int(first); i < int(first+count); i++ {
		b := lv.bounds[w*i : w*(i+1)]
		lo, hi := b[:len(q)], b[p.dim:p.dim+len(q)]
		var sum float64
		for d, v := range q {
			var g float64
			switch {
			case v < lo[d]:
				g = lo[d] - v
			case v > hi[d]:
				g = v - hi[d]
			}
			sum += g * g
		}
		if sum <= eps2 {
			s := lv.spans[i]
			out = p.rangeN(st, level-1, s.first, s.count, q, eps2, out)
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
