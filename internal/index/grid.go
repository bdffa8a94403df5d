package index

import (
	"errors"
	"math"
	"sync"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// Grid is a uniform-grid index. Points are hashed into cells of edge length
// cellSize; an ε-range query with eps ≤ cellSize only needs to inspect the
// 3^d cells surrounding the query point. Candidate distances are verified
// with the configured metric, so the grid is exact for every Minkowski
// metric (any metric where a per-coordinate difference lower-bounds the
// distance).
type Grid struct {
	pts      []geom.Point
	metric   geom.Metric
	cellSize float64
	dim      int
	cells    map[string][]int
	// origin anchors cell coordinates so negative coordinates hash stably.
	origin geom.Point
	// store is the flat backing store of a Euclidean index, nil under any
	// other metric: candidate verification then runs on the strided Store
	// kernels by candidate id.
	store *geom.Store
	// scratch pools the per-query cell-walk state so concurrent range
	// queries stay allocation-free in steady state.
	scratch sync.Pool
}

// gridScratch is the reusable per-query state of the cell walk.
type gridScratch struct {
	center, coords []int64
	key            []byte
}

// gridPruneSlack is the relative FP margin of the cell-prune test: each
// per-axis gap retreats by this fraction of the participating magnitudes
// before being compared against eps. Roundings in the cell-assignment chain
// (subtract, divide, floor) and the distance kernels are bounded by a few
// ulps ≈ 2e-16 of the operand magnitudes; a 1e-12 retreat out-margins them
// by orders of magnitude while remaining far too small to admit extra cells
// on real data (and admitting a cell is only a wasted visit, never an error).
const gridPruneSlack = 1e-12

// NewGrid builds a grid index with cells sized to the intended query radius
// eps. Queries with a radius larger than eps remain correct but degrade
// towards a full scan. eps must be positive and the points of one uniform
// dimensionality. A nil metric defaults to Euclidean, under which pts are
// copied once into a flat store (see NewGridStore); under any other metric
// the point slice is retained.
func NewGrid(pts []geom.Point, metric geom.Metric, eps float64) (*Grid, error) {
	st, err := storeFor(pts, metric)
	if err != nil {
		return nil, err
	}
	if st != nil {
		return NewGridStore(st, metric, eps)
	}
	return buildGrid(pts, metric, nil, eps)
}

// NewGridStore builds a grid index over the points of a flat store. Point(i)
// serves zero-copy views into it; under the Euclidean metric the store is
// retained and candidate verification runs on the strided Store kernels.
func NewGridStore(st *geom.Store, metric geom.Metric, eps float64) (*Grid, error) {
	metric, kept := retained(st, metric)
	return buildGrid(st.Views(), metric, kept, eps)
}

// buildGrid hashes pts (of validated uniform dimensionality) into cells.
func buildGrid(pts []geom.Point, metric geom.Metric, st *geom.Store, eps float64) (*Grid, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, errors.New("index: grid cell size must be a positive finite number")
	}
	g := &Grid{
		pts:      pts,
		metric:   metric,
		store:    st,
		cellSize: eps,
		cells:    make(map[string][]int),
	}
	if len(pts) > 0 {
		g.dim = pts[0].Dim()
		g.origin = pts[0].Clone()
		coords := make([]int64, g.dim)
		for i, p := range pts {
			g.cellCoordsInto(coords, p)
			key := string(appendCellKey(nil, coords))
			g.cells[key] = append(g.cells[key], i)
		}
	}
	dim := g.dim
	g.scratch.New = func() interface{} {
		return &gridScratch{
			center: make([]int64, dim),
			coords: make([]int64, dim),
			key:    make([]byte, 0, dim*8),
		}
	}
	return g, nil
}

// Store implements StoreBacked.
func (g *Grid) Store() *geom.Store { return g.store }

// Len implements Index.
func (g *Grid) Len() int { return len(g.pts) }

// Point implements Index.
func (g *Grid) Point(i int) geom.Point { return g.pts[i] }

// Metric implements Index.
func (g *Grid) Metric() geom.Metric { return g.metric }

// CellCount returns the number of non-empty grid cells (exposed for tests
// and diagnostics).
func (g *Grid) CellCount() int { return len(g.cells) }

// cellCoordsInto writes the cell coordinates of p into c (len g.dim).
func (g *Grid) cellCoordsInto(c []int64, p geom.Point) {
	for i := 0; i < g.dim; i++ {
		c[i] = int64(math.Floor((p[i] - g.origin[i]) / g.cellSize))
	}
}

// appendCellKey encodes cell coordinates into a compact byte key appended to
// buf. Lookups convert with string(buf) directly in the map index expression,
// which the compiler performs without allocating.
func appendCellKey(buf []byte, coords []int64) []byte {
	for _, c := range coords {
		u := uint64(c)
		buf = append(buf,
			byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return buf
}

// Range implements Index.
func (g *Grid) Range(q geom.Point, eps float64) []int {
	return g.RangeAppend(q, eps, nil)
}

// RangeAppendID implements IDRangeAppender: the query point is addressed by
// object id, sparing the caller an interface Point round-trip per query.
func (g *Grid) RangeAppendID(i int, eps float64, buf []int) []int {
	return g.RangeAppend(g.pts[i], eps, buf)
}

// RangeAppend implements RangeAppender. The surrounding-cell walk runs on
// pooled scratch buffers, so steady-state queries allocate nothing.
func (g *Grid) RangeAppend(q geom.Point, eps float64, buf []int) []int {
	out := buf[:0]
	if len(g.pts) == 0 {
		return out
	}
	s := g.scratch.Get().(*gridScratch)
	center, coords := s.center, s.coords
	// A point within eps of q differs by at most eps per coordinate, hence
	// lies within reach cells of q's cell in every dimension.
	reach := int64(math.Ceil(eps / g.cellSize))
	g.cellCoordsInto(center, q)
	for d := range coords {
		coords[d] = center[d] - reach
	}
	eps2 := eps * eps
	// Odometer walk over the (2·reach+1)^d surrounding cells. Cells whose
	// rectangle provably lies outside the query ball are skipped before the
	// map lookup: with cells sized for a larger radius than the query's,
	// most surrounding cells cannot intersect the ball and the walk touches
	// a fraction of the (2·reach+1)^d candidates.
	for {
		// Per-axis gap from q to the cell interval, retreated by an FP
		// slack covering every rounding in the cell-assignment and distance
		// chains — pruning can only skip cells no passing candidate can
		// occupy, so the result set (and its cell order) is identical to
		// the unpruned walk. A gap beyond eps on any axis rules the cell
		// out under every supported metric (the per-coordinate difference
		// lower-bounds each Minkowski distance); under Euclidean the summed
		// squared gaps prune the diagonal cells too.
		skip := false
		var gapSq float64
		for d := 0; d < g.dim; d++ {
			lo := g.origin[d] + float64(coords[d])*g.cellSize
			hi := lo + g.cellSize
			var gap float64
			switch {
			case q[d] < lo:
				gap = lo - q[d]
			case q[d] > hi:
				gap = q[d] - hi
			}
			if gap > 0 {
				gap -= gridPruneSlack * (math.Abs(lo) + math.Abs(hi) + math.Abs(q[d]))
				if gap > eps {
					skip = true
					break
				}
				if gap > 0 {
					gapSq += gap * gap
				}
			}
		}
		if skip || (g.store != nil && gapSq > eps2) {
			d := g.dim - 1
			for d >= 0 {
				coords[d]++
				if coords[d] <= center[d]+reach {
					break
				}
				coords[d] = center[d] - reach
				d--
			}
			if d < 0 {
				break
			}
			continue
		}
		key := appendCellKey(s.key[:0], coords)
		if g.store != nil {
			// The cell's id slice IS the candidate batch: one fused kernel
			// sweep per cell instead of one call per point, identical
			// decisions to testing DistanceSqTo(i, q) one id at a time,
			// cell order preserved.
			out = g.store.VerifyRangeSq(q, g.cells[string(key)], eps2, out)
		} else {
			for _, i := range g.cells[string(key)] {
				if g.metric.Distance(q, g.pts[i]) <= eps {
					out = append(out, i)
				}
			}
		}
		d := g.dim - 1
		for d >= 0 {
			coords[d]++
			if coords[d] <= center[d]+reach {
				break
			}
			coords[d] = center[d] - reach
			d--
		}
		if d < 0 {
			break
		}
	}
	g.scratch.Put(s)
	return out
}
