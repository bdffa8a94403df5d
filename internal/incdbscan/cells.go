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
// A cell that empties leaves the index map; its list is kept for the next
// new cell, so the lists, like the rows, stay proportional to the live
// window's high-water mark.
type cells struct {
	side float64 // the cell side, the clusterer's Eps
	// rows holds the points; nil until the first point fixes the stride.
	rows  *geom.Store
	axes  int               // keyed coordinates, min(d, 2)
	index map[cellKey]int32 // a non-empty cell's list
	lists [][]int           // the slots of each cell; an empty one is free
	free  []int32           // the empty lists, reused most recent first
	at    []slotPlace       // slot → where it is listed
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
)

func newCells(side float64) cells {
	return cells{side: side, index: make(map[cellKey]int32)}
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
		}
		g.index[k] = c
	}
	g.at[i] = slotPlace{list: c, pos: int32(len(g.lists[c]))}
	g.lists[c] = append(g.lists[c], i)
}

// remove unlists slot i, moving the last slot of its cell into its place;
// the row stays readable until the slot is recycled.
func (g *cells) remove(i int) {
	at := g.at[i]
	ids := g.lists[at.list]
	last := ids[len(ids)-1]
	ids[at.pos] = last
	g.at[last].pos = at.pos
	g.lists[at.list] = ids[:len(ids)-1]
	if len(ids) == 1 {
		delete(g.index, g.key(i))
		g.free = append(g.free, at.list)
	}
}

// rangeAppend returns the live slots within Euclidean distance eps of q,
// boundary inclusive, written into buf after truncating it.
func (g *cells) rangeAppend(q geom.Point, eps float64, buf []int) []int {
	out := buf[:0]
	eps2 := eps * eps
	r := math.Abs(eps)*(1+cellSlack) + cellTiny
	var lo, hi cellKey
	every := math.IsNaN(r) || math.IsInf(eps2, 1)
	for a := 0; a < g.axes && !every; a++ {
		lo[a] = g.coordKey(math.Nextafter(q[a]-r, math.Inf(-1)))
		hi[a] = g.coordKey(math.Nextafter(q[a]+r, math.Inf(1)))
	}
	n := int64(len(g.lists))
	if w, h := hi[0]-lo[0]+1, hi[1]-lo[1]+1; every || w > n || h > n || w*h > n {
		for _, ids := range g.lists {
			out = g.rows.VerifyRangeSq(q, ids, eps2, out)
		}
	} else {
		for x := lo[0]; x <= hi[0]; x++ {
			for y := lo[1]; y <= hi[1]; y++ {
				if c, ok := g.index[cellKey{x, y}]; ok {
					out = g.rows.VerifyRangeSq(q, g.lists[c], eps2, out)
				}
			}
		}
	}
	return out
}
