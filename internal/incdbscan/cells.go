package incdbscan

import (
	"errors"
	"fmt"
	"math"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// cells is the clusterer's index: the rows of every slot, slot i in row i,
// and the live slots listed per cell of side Eps. A cell is keyed on the
// first min(d, 2) coordinates, the layout of dbdc.RepSelector's grid, so an
// Eps query visits nine cells in any dimension — sixteen when rounding puts
// the query's interval within a sliver of a cell edge.
//
// A query hands each visited cell's list to Store.VerifyRangeSq and is
// therefore exactly the set the kernel accepts among the live slots; only
// the order is the visit's. No slot the kernel accepts lies in an unvisited
// cell. The kernel accepts x for q only if every term fl(q_k − x_k)² of its
// sum, each at most the sum, is at most fl(eps·eps); so |q_k − x_k| exceeds
// |eps| by at most a few units of 2⁻⁵³ relative, plus about 2⁻⁵³⁷ where the
// squares fall below the normal range. The query widens [q_k − |eps|,
// q_k + |eps|] by cellSlack relative and cellTiny absolute — thousands of
// times either error — and rounds its ends outward, so x_k lies inside it;
// and a key is a monotone function of its coordinate, so x's cell lies
// between the keys of the ends. Where eps·eps overflows, every distance
// passes, an infinite one included, and the query visits every cell
// instead; it does so too whenever its keys span more cells than exist.
//
// Every open cell's list also has a row of the table around: the lists at
// key offsets −1…+1 on each keyed axis (3^axes entries, x-major, −1 where no
// cell is open). A cell fills its row from the map when it opens, and
// writes itself into its open neighbours' rows; when it closes it clears
// itself from theirs. The clusterer's queries are all of a live slot at
// eps = side, and such a query's interval, a little over two sides long,
// mostly lies within ±1 key of the slot's own: it then walks the keys lo…hi
// through the row of the slot's list — the cells the map would have been
// asked for, in the same order, so the same ids come back in the same order
// — with no map lookup. A query whose keys do not fit the row asks the map
// instead: a sliver, a slot within rounding of a cell edge whose interval
// spans four keys; keys clamped at ±2⁶⁰ or far from the origin, where one
// step outward is several keys; and sides so small that cellTiny is several
// of them.
//
// A cell that empties leaves the index map; its list, and the list's row,
// are kept for the next new cell, so the lists, like the rows, stay
// proportional to the live window's high-water mark.
type cells struct {
	side float64 // the cell side, the clusterer's Eps
	// rows holds the points; nil until the first point fixes the stride.
	rows  *geom.Store
	axes  int               // keyed coordinates, min(d, 2)
	index map[cellKey]int32 // a non-empty cell's list
	lists [][]int           // the slots of each cell; an empty one is free
	keys  []cellKey         // the key of each open list
	// around holds a row of 3^axes lists for each list: the lists at key
	// offsets −1…+1, x-major, −1 where no cell is open. ry is the reach
	// along the second axis, 1, or 0 when only one axis is keyed.
	around []int32
	ry     int64
	free   []int32     // the empty lists, reused most recent first
	at     []slotPlace // slot → where it is listed
}

type cellKey [2]int64

// slotPlace is a live slot's list and its position there.
type slotPlace struct{ list, pos int32 }

const (
	// cellSlack and cellTiny widen a query's interval against the rounding
	// of the kernel's differences and squares (dbdc.RepSelector's margins).
	cellSlack = 1e-12
	cellTiny  = 1e-160
	// keyClamp bounds a key, so that a huge finite coordinate over a small
	// side lands in an edge cell instead of overflowing int64; it is exact
	// in float64, and two clamped keys differ by less than 2⁶².
	keyClamp = 1 << 60
	// reach is the key offset the table around covers on each keyed axis.
	reach = 1
)

func newCells(side float64) cells {
	return cells{side: side, index: make(map[cellKey]int32)}
}

// width is the length of a row of around: 3^axes.
func (g *cells) width() int { return (2*reach + 1) * int(2*g.ry+1) }

// row returns list c's row of around.
func (g *cells) row(c int32) []int32 {
	w := g.width()
	return g.around[int(c)*w:][:w]
}

// admit checks that p can join the index. The first point ever admitted
// fixes the dimensionality, and with it the stride of the rows.
func (g *cells) admit(p geom.Point) error {
	switch {
	case !p.IsFinite():
		return fmt.Errorf("incdbscan: non-finite point %v", p)
	case g.rows == nil && p.Dim() == 0:
		return errors.New("incdbscan: zero-dimensional point")
	case g.rows == nil:
		g.rows, g.axes = geom.NewStore(p.Dim(), 0), min(p.Dim(), 2)
		if g.axes == 2 {
			g.ry = reach
		}
	case p.Dim() != g.rows.Dim():
		return fmt.Errorf("incdbscan: point dimensionality %d, clusterer has %d", p.Dim(), g.rows.Dim())
	}
	return nil
}

// add stores an admitted point in a new slot, lists it and returns the slot.
func (g *cells) add(p geom.Point) int {
	g.rows.Append(p)
	g.at = append(g.at, slotPlace{})
	i := len(g.at) - 1
	g.list(i)
	return i
}

// replace stores an admitted point in vacant slot i and lists it.
func (g *cells) replace(i int, p geom.Point) {
	copy(g.rows.Point(i), p)
	g.list(i)
}

// key returns the cell of slot i's row.
func (g *cells) key(i int) cellKey {
	var k cellKey
	row := g.rows.Point(i)
	for a := range g.axes {
		k[a] = g.coordKey(row[a])
	}
	return k
}

// coordKey is ⌊x/side⌋ clamped to ±keyClamp: monotone in x.
func (g *cells) coordKey(x float64) int64 {
	return int64(max(-keyClamp, min(math.Floor(x/g.side), keyClamp)))
}

// list appends slot i to its cell's list, opening the cell if it is empty.
func (g *cells) list(i int) {
	k := g.key(i)
	c, ok := g.index[k]
	if !ok {
		if n := len(g.free); n > 0 {
			c, g.free = g.free[n-1], g.free[:n-1]
		} else {
			c = int32(len(g.lists))
			g.lists = append(g.lists, nil)
			g.keys = append(g.keys, cellKey{})
			g.around = append(g.around, make([]int32, g.width())...)
		}
		g.index[k] = c
		g.keys[c] = k
		g.link(c)
	}
	g.at[i] = slotPlace{list: c, pos: int32(len(g.lists[c]))}
	g.lists[c] = append(g.lists[c], i)
}

// link fills the row of newly opened list c from the map, and writes c into
// the row of each open neighbour at the opposite offset, which in an x-major
// row of odd widths is the mirrored entry.
func (g *cells) link(c int32) {
	k, row := g.keys[c], g.row(c)
	o := 0
	for x := k[0] - reach; x <= k[0]+reach; x++ {
		for y := k[1] - g.ry; y <= k[1]+g.ry; y++ {
			n, ok := g.index[cellKey{x, y}]
			if !ok {
				n = -1
			} else {
				g.row(n)[len(row)-1-o] = c
			}
			row[o] = n
			o++
		}
	}
}

// remove unlists slot i, moving the last slot of its cell into its place;
// the row stays readable until the slot is recycled. A cell that empties
// closes: it leaves the map and its open neighbours' rows.
func (g *cells) remove(i int) {
	at := g.at[i]
	ids := g.lists[at.list]
	last := ids[len(ids)-1]
	ids[at.pos] = last
	g.at[last].pos = at.pos
	g.lists[at.list] = ids[:len(ids)-1]
	if len(ids) == 1 {
		delete(g.index, g.keys[at.list])
		row := g.row(at.list)
		for o, n := range row {
			if n >= 0 {
				g.row(n)[len(row)-1-o] = -1
			}
		}
		g.free = append(g.free, at.list)
	}
}

// bounds returns the keys of the ends of q's query interval at eps, and
// whether the query must visit every list instead: eps·eps overflows, or
// the keys span more cells than there are lists.
func (g *cells) bounds(q geom.Point, eps float64) (lo, hi cellKey, every bool) {
	r := math.Abs(eps)*(1+cellSlack) + cellTiny
	every = math.IsNaN(r) || math.IsInf(eps*eps, 1)
	for a := 0; a < g.axes && !every; a++ {
		lo[a] = g.coordKey(math.Nextafter(q[a]-r, math.Inf(-1)))
		hi[a] = g.coordKey(math.Nextafter(q[a]+r, math.Inf(1)))
	}
	n := int64(len(g.lists))
	w, h := hi[0]-lo[0]+1, hi[1]-lo[1]+1
	return lo, hi, every || w > n || h > n || w*h > n
}

// rangeAppend returns the live slots within Euclidean distance eps of q,
// boundary inclusive, written into buf after truncating it. It asks the map
// for each cell of the interval.
func (g *cells) rangeAppend(q geom.Point, eps float64, buf []int) []int {
	lo, hi, every := g.bounds(q, eps)
	if every {
		return g.everyList(q, eps*eps, buf[:0])
	}
	return g.mapWalk(q, eps*eps, lo, hi, buf[:0])
}

// rangeOf is rangeAppend for the row of live slot i at eps = side: the same
// ids in the same order, with the cells read from the row of i's list.
func (g *cells) rangeOf(i int, buf []int) []int {
	q, c, eps2 := g.rows.Point(i), g.at[i].list, g.side*g.side
	lo, hi, every := g.bounds(q, g.side)
	k, out := g.keys[c], buf[:0]
	switch {
	case every:
		out = g.everyList(q, eps2, out)
	case !g.inRow(k, lo, hi):
		out = g.mapWalk(q, eps2, lo, hi, out)
	default:
		row, w := g.row(c), 2*g.ry+1
		for x := lo[0]; x <= hi[0]; x++ {
			// row[base+y] is the list at offsets (x − k₀, y − k₁).
			base := (x-k[0]+reach)*w - k[1] + g.ry
			for y := lo[1]; y <= hi[1]; y++ {
				if n := row[base+y]; n >= 0 {
					out = g.rows.VerifyRangeSq(q, g.lists[n], eps2, out)
				}
			}
		}
	}
	if checkRangeOf != nil {
		checkRangeOf(g, i, out)
	}
	return out
}

// inRow reports whether the keys lo…hi lie within the row of the list
// keyed k.
func (g *cells) inRow(k, lo, hi cellKey) bool {
	return lo[0] >= k[0]-reach && hi[0] <= k[0]+reach && lo[1] >= k[1]-g.ry && hi[1] <= k[1]+g.ry
}

// checkRangeOf is set by the dbdc_debugchecks build (checks_debug.go).
var checkRangeOf func(g *cells, i int, got []int)

// everyList verifies q against every list, in list order.
func (g *cells) everyList(q geom.Point, eps2 float64, out []int) []int {
	for _, ids := range g.lists {
		out = g.rows.VerifyRangeSq(q, ids, eps2, out)
	}
	return out
}

// mapWalk verifies q against the cells lo…hi, x-major, found in the map.
func (g *cells) mapWalk(q geom.Point, eps2 float64, lo, hi cellKey, out []int) []int {
	for x := lo[0]; x <= hi[0]; x++ {
		for y := lo[1]; y <= hi[1]; y++ {
			if c, ok := g.index[cellKey{x, y}]; ok {
				out = g.rows.VerifyRangeSq(q, g.lists[c], eps2, out)
			}
		}
	}
	return out
}
