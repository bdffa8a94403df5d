package index

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// Grid is a uniform-grid index in compressed sparse row form. Points are
// assigned to cells of edge length cellSize; the occupied cells are sorted by
// their integer coordinates, lexicographically, and each owns a span of one id
// permutation, its ids ascending. A query walks the occupied cells within
// reach axis by axis (see walk), so it costs the cells that hold points, never
// the empty positions between them, and verifies each reached cell's span on
// the strided Store kernels in squared space.
type Grid struct {
	store    *geom.Store
	cellSize float64
	dim      int
	// origin anchors cell coordinates so negative coordinates stay stable.
	origin geom.Point
	// Cell c has the coordinates keys[c*dim:(c+1)*dim] and owns the ids
	// perm[spans[c].first:][:spans[c].count].
	perm  []int
	keys  []int64
	spans []span
}

// span is the run of a permutation one cell owns.
type span struct{ first, count int32 }

// gridPruneSlack is the relative FP margin of the cell-prune test: each
// per-axis gap retreats by this fraction of the participating magnitudes
// before being compared against eps. Roundings in the cell-assignment chain
// (subtract, divide, floor) and the distance kernels are bounded by a few
// ulps ≈ 2e-16 of the operand magnitudes; a 1e-12 retreat out-margins them
// by orders of magnitude while remaining far too small to admit extra cells
// on real data (and admitting a cell is only a wasted visit, never an error).
const gridPruneSlack = 1e-12

// NewGridStore builds a grid index over the points of a flat store, which it
// retains, with cells sized to the intended query radius eps. Queries with a
// radius larger than eps remain correct; they visit more occupied cells —
// every one of them at worst, a full scan — but never an empty one. eps must
// be positive and finite. The build sorts the ids by their cell coordinates,
// lexicographically, ties in id order, and cuts the result into one span per
// cell.
func NewGridStore(st *geom.Store, eps float64) (*Grid, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, errors.New("index: grid cell size must be a positive finite number")
	}
	g := &Grid{store: st, cellSize: eps}
	n := st.Len()
	if n == 0 {
		return g, nil
	}
	dim := st.Dim()
	g.dim, g.origin = dim, st.Point(0).Clone()
	coords := make([]int64, n*dim)
	g.perm = make([]int, n)
	for i := range n {
		p := st.Point(i)
		for d := range dim {
			coords[i*dim+d] = g.cellOf(p, d)
		}
		g.perm[i] = i
	}
	key := func(id int) []int64 { return coords[id*dim : (id+1)*dim] }
	slices.SortFunc(g.perm, func(a, b int) int {
		if c := slices.Compare(key(a), key(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for k, id := range g.perm {
		if k == 0 || !slices.Equal(key(id), g.keys[len(g.keys)-dim:]) {
			g.keys = append(g.keys, key(id)...)
			g.spans = append(g.spans, span{first: int32(k)})
		}
		g.spans[len(g.spans)-1].count++
	}
	return g, nil
}

// Store implements StoreBacked.
func (g *Grid) Store() *geom.Store { return g.store }

// Len implements Index.
func (g *Grid) Len() int { return g.store.Len() }

// Point implements Index.
func (g *Grid) Point(i int) geom.Point { return g.store.Point(i) }

// Metric implements Index.
func (g *Grid) Metric() geom.Metric { return geom.Euclidean{} }

// CellCount returns the number of non-empty grid cells (exposed for tests
// and diagnostics).
func (g *Grid) CellCount() int { return len(g.spans) }

// cellOf returns the coordinate of p's cell on axis d.
func (g *Grid) cellOf(p geom.Point, d int) int64 {
	return int64(math.Floor((p[d] - g.origin[d]) / g.cellSize))
}

// Range implements Index.
func (g *Grid) Range(q geom.Point, eps float64) []int {
	return g.RangeAppend(q, eps, nil)
}

// RangeAppendID implements IDRangeAppender: the query point is addressed by
// object id, sparing the caller an interface Point round-trip per query.
func (g *Grid) RangeAppendID(i int, eps float64, buf []int) []int {
	return g.RangeAppend(g.store.Point(i), eps, buf)
}

// RangeAppend implements RangeAppender. The walk keeps its state on the
// stack, so queries allocate nothing once buf has grown. A negative or NaN
// radius finds nothing.
func (g *Grid) RangeAppend(q geom.Point, eps float64, buf []int) []int {
	out := buf[:0]
	if len(g.spans) == 0 || !(eps >= 0) {
		return out
	}
	// A point within eps of q differs by at most eps per coordinate, hence
	// lies within reach cells of q's cell on every axis.
	return g.walk(q, 0, 0, len(g.spans), math.Ceil(eps/g.cellSize), eps, eps*eps, 0, out)
}

// walk appends the ids within eps of q of the cells [lo, hi) — the occupied
// cells that share the coordinates the walk has fixed on the axes before d,
// sorted by their coordinate on d — whose coordinate on every axis from d on
// lies within reach of q's cell, in key order: the order of an odometer over
// every cell position in reach, the last axis turning fastest.
//
// Each distinct coordinate on axis d is a run of the cells, found by binary
// search, and passes through the cell-prune test before the walk enters it:
// the per-axis gap from q to the cell's interval on d, retreated by an FP
// slack covering every rounding in the cell-assignment and distance chains,
// rules the run out when it exceeds eps; gapSq sums the squared gaps in
// ascending axis order and rules a run out once it exceeds eps², which prunes
// the diagonal cells too. A sum of non-negative terms never rounds below a
// partial sum, so pruning a run on the partial sum prunes exactly the cells
// the whole sum prunes, and only cells no passing candidate can occupy.
func (g *Grid) walk(q geom.Point, d, lo, hi int, reach, eps, eps2, gapSq float64, out []int) []int {
	c, from, to := g.cellOf(q, d), int64(math.MinInt64), int64(math.MaxInt64)
	if reach < 1<<62 { // a wider reach, or one that wraps, is unbounded
		r := int64(reach)
		if c-r <= c {
			from = c - r
		}
		if c+r >= c {
			to = c + r
		}
	}
	if from > math.MinInt64 {
		lo = g.firstAbove(d, lo, hi, from-1)
	}
	for lo < hi {
		v := g.keys[lo*g.dim+d]
		if v > to {
			break
		}
		end := lo + 1
		if d < g.dim-1 {
			end = g.firstAbove(d, lo, hi, v)
		}
		cellLo := g.origin[d] + float64(v)*g.cellSize
		cellHi := cellLo + g.cellSize
		var gap float64
		switch {
		case q[d] < cellLo:
			gap = cellLo - q[d]
		case q[d] > cellHi:
			gap = q[d] - cellHi
		}
		sum := gapSq
		if gap > 0 {
			gap -= gridPruneSlack * (math.Abs(cellLo) + math.Abs(cellHi) + math.Abs(q[d]))
			if gap > 0 {
				sum += gap * gap
			}
		}
		switch {
		case gap > eps || sum > eps2:
		case d < g.dim-1:
			out = g.walk(q, d+1, lo, end, reach, eps, eps2, sum, out)
		default:
			// The cell's span IS the candidate batch: one fused kernel sweep
			// per cell, identical decisions to testing DistanceSqTo(i, q) one
			// id at a time, span order preserved.
			s := g.spans[lo]
			out = g.store.VerifyRangeSq(q, g.perm[s.first:s.first+s.count], eps2, out)
		}
		lo = end
	}
	return out
}

// firstAbove returns the first of the cells [lo, hi), sorted by their
// coordinate on axis d, whose coordinate on d is above v.
func (g *Grid) firstAbove(d, lo, hi int, v int64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.keys[mid*g.dim+d] > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
