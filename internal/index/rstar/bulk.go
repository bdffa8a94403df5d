package rstar

import (
	"math"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// NewBulkStore builds a read-only R*-tree over the points of a flat store
// with Sort-Tile-Recursive (STR) bulk loading (Leutenegger, Lopez, Edgington
// 1997): points are tiled into fully packed, minimally overlapping leaves,
// then the upper levels are packed the same way. Bulk loading is an order of
// magnitude faster than repeated insertion and yields less overlapping
// leaves, so it is the tree's one build.
//
// The result is a Packed: one id permutation and, per level, a flat node and
// bounds array. A leaf is a span of the permutation and its box; the levels
// above serve NearLeaves. It has no pointer nodes and no mutators.
//
// Point(i) serves zero-copy views into the store; the build copies no
// coordinates, only the routing-level bounds are new floats.
//
// epsHint, when given, is the radius the tree expects its leaves to be walked
// at: NearLeaves at that radius reads a table built once (see Packed.near).
//
// The rows must be finite: index.BuildStore refuses a store with a NaN or
// ±Inf coordinate before it gets here.
func NewBulkStore(st *geom.Store, maxEntries int, epsHint ...float64) (*Packed, error) {
	if err := checkFanout(maxEntries); err != nil {
		return nil, err
	}
	p := packSTR(st, maxEntries)
	if len(epsHint) > 0 {
		p.linkLeaves(epsHint[0])
	}
	return p, nil
}

// Packed is a bulk-loaded R*-tree over the rows of a store, which it reads and
// never writes. Leaf i owns the point ids perm[first:first+count] of
// levels[0].spans[i]; a node of levels[l], l > 0, owns that run of
// levels[l-1]. The root is not stored: it sits one level above the last
// stored one and owns all of it; rootCount is how many that makes. Points
// that fit the root are its one leaf, in identity order, and a store without
// rows has no level and no leaf. Concurrent readers need no synchronisation.
//
// near[nearEnd[i]:nearEnd[i+1]] lists the leaves whose box lies within
// sqrt(nearEps2) of leaf i's box, in a descent's visit order, adjacent ones as
// one span: NearLeaves' answer at that radius, worked out once. Without the
// table (see linkLeaves) nearEps2 is negative.
type Packed struct {
	rows      *geom.Store
	dim       int
	perm      []int
	levels    []packedLevel
	rootCount int32
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

// Len returns the number of indexed points.
func (p *Packed) Len() int { return p.rows.Len() }

// Point returns the point of id i as a view of the store's row.
func (p *Packed) Point(i int) geom.Point { return p.rows.Point(i) }

// Store returns the store the tree was built over: its ids are the store's
// rows, for the tree's lifetime.
func (p *Packed) Store() *geom.Store { return p.rows }

// NumLeaves returns the number of leaves, 0 for a store without rows.
func (p *Packed) NumLeaves() int {
	if len(p.levels) == 0 {
		return 0
	}
	return len(p.levels[0].spans)
}

// Leaf returns the leaf's span of perm and its bounds.
func (p *Packed) Leaf(i int) (ids []int, box []float64) {
	s, w := p.levels[0].spans[i], 2*p.dim
	return p.perm[s.first : s.first+s.count], p.levels[0].bounds[w*i : w*(i+1)]
}

// NearLeaves lists the leaves near leaf i by the box-against-box descent, or
// by the leaf table when it was built for eps: it lists the same leaves.
func (p *Packed) NearLeaves(i int, eps float64, near []int32) []int32 {
	if eps*eps != p.nearEps2 {
		_, box := p.Leaf(i)
		return p.reach(len(p.levels), 0, p.rootCount, box, eps*eps, near)
	}
	for _, s := range p.near[p.nearEnd[i]:p.nearEnd[i+1]] {
		for leaf := s.first; leaf < s.first+s.count; leaf++ {
			near = append(near, leaf)
		}
	}
	return near
}

// packSTR tiles the store's rows bottom-up until one node can hold what is
// left. Level 0 tiles perm in place over the rows themselves (a point is its
// own degenerate box); every further level tiles a permutation of the nodes
// just formed over their bounds, and then moves those nodes into the tiled
// order so that each parent's children are contiguous. Rows that one node can
// hold are not tiled: they are the one leaf, as they stand.
func packSTR(st *geom.Store, maxEntries int) *Packed {
	dim := st.Dim()
	p := &Packed{rows: st, dim: dim, perm: identity(st.Len()), nearEps2: -1}
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
	if len(p.levels) == 0 && len(order) > 0 {
		lv := packedLevel{spans: []span{{0, int32(len(order))}}, bounds: make([]float64, 2*dim)}
		tl.bound(order, lv.bounds)
		p.levels, order = []packedLevel{lv}, order[:1]
	}
	p.rootCount = int32(len(order))
	return p
}

// linkLeaves builds near for radii up to eps — unless eps is not positive and
// finite, there are no leaves, or near would hold more spans than there are
// points (many scattered near leaves each: high dimensions, a wide radius).
func (p *Packed) linkLeaves(eps float64) {
	if !(eps > 0) || math.IsInf(eps, 1) || len(p.levels) == 0 {
		return
	}
	leaves := len(p.levels[0].spans)
	near, nearEnd, list := []span(nil), make([]int32, 1, leaves+1), make([]int32, 0, leaves)
	for i := range leaves {
		list = p.NearLeaves(i, eps, list[:0])
		for k, leaf := range list {
			if last := len(near) - 1; k > 0 && near[last].first+near[last].count == leaf {
				near[last].count++
			} else {
				near = append(near, span{first: leaf, count: 1})
			}
		}
		if len(near) > len(p.perm) {
			return
		}
		nearEnd = append(nearEnd, int32(len(near)))
	}
	p.near, p.nearEnd, p.nearEps2 = near, nearEnd, eps*eps
}

// reach appends to near the leaves under the children [first, first+count)
// of a node at level whose boxes lie within eps2 of box.
func (p *Packed) reach(level int, first, count int32, box []float64, eps2 float64, near []int32) []int32 {
	lv, w, lo, hi := &p.levels[level-1], 2*p.dim, box[:p.dim], box[p.dim:]
	for i := first; i < first+count; i++ {
		switch {
		case gapSq(lo, hi, lv.bounds[w*int(i):w*int(i+1)]) > eps2:
		case level > 1:
			near = p.reach(level-1, lv.spans[i].first, lv.spans[i].count, box, eps2, near)
		default:
			near = append(near, i)
		}
	}
	return near
}

// gapSq is the squared gap from the box [lo, hi] to the box b, Min corner
// then Max corner: per dimension the distance past b's nearer face, squared
// and summed in order, the R-tree's pruning bound.
func gapSq(lo, hi, b []float64) float64 {
	var sum float64
	hi, mn, mx := hi[:len(lo)], b[:len(lo)], b[len(b)/2:][:len(lo)]
	for d, v := range lo {
		g := max(mn[d]-hi[d], 0) + max(v-mx[d], 0) // at most one is past 0
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
