package incdbscan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
)

// TestCellsAtExtremeScales holds the cell index to the linear scan where
// the cells alone would miss what the kernel accepts: an Eps so small that
// its square underflows (the kernel then accepts any two points whose
// squared distance underflows too, many cells apart), and one so large that
// its square overflows (the kernel then accepts every pair, infinitely far
// apart included, while the keys of both ends of the query clamp).
func TestCellsAtExtremeScales(t *testing.T) {
	cases := []struct {
		name string
		eps  float64
		pts  []geom.Point
	}{
		{"eps-square-underflows", 1e-300, []geom.Point{{0, 0}, {1e-170, 0}, {0, -1e-170}, {1e-300, 0}, {1, 1}}},
		{"eps-square-overflows", 1e200, []geom.Point{{-1e308, 0}, {1e308, 0}, {0, 1e308}, {0, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(dbscan.Params{Eps: tc.eps, MinPts: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tc.pts {
				if _, err := c.Insert(p); err != nil {
					t.Fatal(err)
				}
				checkNeighbourhoods(t, c)
			}
			if got := c.cells.rangeAppend(c.Point(0), tc.eps, nil); len(got) < 2 {
				t.Fatalf("vacuous: object 0 has neighbourhood %v", got)
			}
		})
	}
}

// TestCellsRefuse: a non-finite point, a zero-dimensional one and a change of
// dimensionality are refused, and leave the clusterer as it was.
func TestCellsRefuse(t *testing.T) {
	c, _ := New(dbscan.Params{Eps: 1, MinPts: 2})
	if _, err := c.Insert(geom.Point{}); err == nil {
		t.Error("zero-dimensional point accepted")
	}
	for _, p := range []geom.Point{{math.NaN(), 0}, {0, math.Inf(-1)}} {
		if _, err := c.Insert(p); err == nil {
			t.Errorf("%v accepted", p)
		}
	}
	if _, err := c.Insert(geom.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(geom.Point{0}); err == nil {
		t.Error("1-d point accepted by a 2-d clusterer")
	}
	if c.Len() != 1 || c.LiveCount() != 1 {
		t.Fatalf("refusals left %d slots, %d live", c.Len(), c.LiveCount())
	}
	checkNeighbourhoods(t, c)
}

// cellsOf lists pts in a fresh index of the given side, slot i for pts[i].
func cellsOf(t *testing.T, side float64, pts []geom.Point) *cells {
	t.Helper()
	g := newCells(side)
	for i, p := range pts {
		if err := g.admit(p); err != nil {
			t.Fatal(err)
		}
		if got := g.add(p); got != i {
			t.Fatalf("point %d stored in slot %d", i, got)
		}
	}
	return &g
}

// normalPoints draws n dim-d points with coordinates from N(0, 5²).
func normalPoints(rng *rand.Rand, n, dim int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = make(geom.Point, dim)
		for k := range pts[i] {
			pts[i][k] = rng.NormFloat64() * 5
		}
	}
	return pts
}

// checkCells verifies the structure of the index: every live slot is listed
// exactly once, in the list its key maps to, at the position at records; the
// map names exactly the non-empty lists, one key each; and the free lists are
// exactly the empty ones.
func checkCells(t *testing.T, g *cells, live []bool) {
	t.Helper()
	listed := make([]int, len(live))
	for c, ids := range g.lists {
		for pos, i := range ids {
			if !live[i] {
				t.Fatalf("slot %d listed but not live", i)
			}
			listed[i]++
			if at := g.at[i]; int(at.list) != c || int(at.pos) != pos {
				t.Fatalf("slot %d at list %d position %d, recorded (%d, %d)", i, c, pos, at.list, at.pos)
			}
			if g.keys[c] != g.key(i) {
				t.Fatalf("slot %d in list %d keyed %v, its key is %v", i, c, g.keys[c], g.key(i))
			}
			if k, ok := g.index[g.key(i)]; !ok || int(k) != c {
				t.Fatalf("slot %d in list %d, its key maps to %d (%v)", i, c, k, ok)
			}
		}
	}
	for i, ok := range live {
		if ok && listed[i] != 1 {
			t.Fatalf("live slot %d listed %d times", i, listed[i])
		}
	}
	owners := make(map[int32]bool, len(g.index))
	for _, c := range g.index {
		if owners[c] || len(g.lists[c]) == 0 {
			t.Fatalf("list %d mapped twice or empty", c)
		}
		owners[c] = true
	}
	empty := 0
	for _, ids := range g.lists {
		if len(ids) == 0 {
			empty++
		}
	}
	if empty != len(g.free) || len(g.index)+len(g.free) != len(g.lists) {
		t.Fatalf("%d lists: %d mapped, %d free, %d empty", len(g.lists), len(g.index), len(g.free), empty)
	}
	for _, c := range g.free {
		if owners[c] || len(g.lists[c]) != 0 {
			t.Fatalf("free list %d in use", c)
		}
	}
	checkRows(t, g)
	checkRowQueries(t, g, live)
}

// checkRows holds every entry of every open list's row of around to the map
// lookup at that offset from the list's key, or to -1 where no cell is open.
func checkRows(t *testing.T, g *cells) {
	t.Helper()
	if len(g.around) != len(g.lists)*g.width() {
		t.Fatalf("%d table entries for %d lists of %d", len(g.around), len(g.lists), g.width())
	}
	for k, c := range g.index {
		row, o := g.row(c), 0
		for dx := int64(-reach); dx <= reach; dx++ {
			for dy := -g.ry; dy <= g.ry; dy++ {
				want, ok := g.index[cellKey{k[0] + dx, k[1] + dy}]
				if !ok {
					want = -1
				}
				if row[o] != want {
					t.Fatalf("list %d at %v: offset (%d, %d) holds %d, the map %d", c, k, dx, dy, row[o], want)
				}
				o++
			}
		}
	}
}

// checkRowQueries holds each live slot's query through the row of its list
// to the map walk over the same interval: the same ids in the same order. It
// returns how many of the queries read the row rather than falling back to
// the map or to every list.
func checkRowQueries(t *testing.T, g *cells, live []bool) (tabled int) {
	t.Helper()
	for i, ok := range live {
		if !ok {
			continue
		}
		q := g.rows.Point(i)
		got, want := g.rangeOf(i, nil), g.rangeAppend(q, g.side, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("slot %d at %v: the row gives %v, the map walk %v", i, q, got, want)
		}
		if rowSpan(g, i) {
			tabled++
		}
	}
	return tabled
}

// rowSpan reports whether slot i's query reads the row of its list: its
// interval's keys lie within ±reach of the slot's own key, and it does not
// visit every list.
func rowSpan(g *cells, i int) bool {
	lo, hi, every := g.bounds(g.rows.Point(i), g.side)
	return !every && g.inRow(g.keys[g.at[i].list], lo, hi)
}

// checkRange holds a query to the kernel over every live row, as a set.
func checkRange(t *testing.T, g *cells, live []bool, q geom.Point, eps float64) {
	t.Helper()
	var all []int
	for i, ok := range live {
		if ok {
			all = append(all, i)
		}
	}
	got := g.rangeAppend(q, eps, nil)
	slices.Sort(got)
	var want []int
	if g.rows != nil {
		want = g.rows.VerifyRangeSq(q, all, eps*eps, nil)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("range %v at %v: cells %v, scan %v", q, eps, got, want)
	}
}

func TestCellsEmpty(t *testing.T) {
	g := newCells(1)
	if got := g.rangeAppend(geom.Point{0, 0}, 1, nil); len(got) != 0 {
		t.Errorf("range on an empty index = %v", got)
	}
	checkCells(t, &g, nil)
}

// TestCellsRemoveToEmptyAndReuse: removing every slot empties the map and
// frees every list; a recycled slot is listed again in a reused list.
func TestCellsRemoveToEmptyAndReuse(t *testing.T) {
	g := cellsOf(t, 1, []geom.Point{{0, 0}, {1, 1}, {2, 2}})
	live := []bool{true, true, true}
	lists := len(g.lists)
	for i := range live {
		g.remove(i)
		live[i] = false
		checkCells(t, g, live)
	}
	if len(g.index) != 0 || len(g.free) != lists {
		t.Fatalf("emptied index: %d cells mapped, %d of %d lists free", len(g.index), len(g.free), lists)
	}
	checkRange(t, g, live, geom.Point{1, 1}, 10)
	g.replace(2, geom.Point{5, 5})
	live[2] = true
	checkCells(t, g, live)
	if got := g.rangeAppend(geom.Point{5, 5}, 0, nil); !slices.Equal(got, []int{2}) {
		t.Fatalf("range after reuse = %v", got)
	}
	if len(g.lists) != lists {
		t.Fatalf("reuse opened a new list: %d lists, had %d", len(g.lists), lists)
	}
}

// TestCellsRemoveRandomSubsets: after removing a random 60%, every query
// matches the scan over the survivors, in one dimension, in two, and beyond
// the keyed coordinates.
func TestCellsRemoveRandomSubsets(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("d=%d", dim), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(51 + dim)))
			n := 200 + rng.Intn(800)
			pts := normalPoints(rng, n, dim)
			g := cellsOf(t, 0.5+rng.Float64(), pts)
			live := make([]bool, n)
			for i := range live {
				live[i] = true
			}
			for _, i := range rng.Perm(n)[:n*6/10] {
				g.remove(i)
				live[i] = false
			}
			checkCells(t, g, live)
			for range 30 {
				checkRange(t, g, live, normalPoints(rng, 1, dim)[0], rng.Float64()*5)
			}
			for i, ok := range live {
				if ok {
					checkRange(t, g, live, pts[i], g.side)
				}
			}
		})
	}
}

// TestCellsInterleaved: interleaved adds and removes keep the structure sound.
func TestCellsInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	g := newCells(1)
	var live []bool
	var alive []int
	for step := range 3000 {
		if len(alive) > 0 && rng.Float64() < 0.4 {
			k := rng.Intn(len(alive))
			i := alive[k]
			alive[k] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
			g.remove(i)
			live[i] = false
		} else {
			p := geom.Point{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
			if err := g.admit(p); err != nil {
				t.Fatal(err)
			}
			alive = append(alive, g.add(p))
			live = append(live, true)
		}
		if step%500 == 499 {
			checkCells(t, &g, live)
			checkRange(t, &g, live, geom.Point{rng.NormFloat64() * 5, rng.NormFloat64() * 5}, 2)
		}
	}
	checkCells(t, &g, live)
}

// TestCellsDuplicatesBySlot: identical points share one cell, and removing
// every even slot leaves exactly the odd ones.
func TestCellsDuplicatesBySlot(t *testing.T) {
	pts := make([]geom.Point, 50)
	live := make([]bool, 50)
	for i := range pts {
		pts[i], live[i] = geom.Point{3, 3}, true
	}
	g := cellsOf(t, 1, pts)
	for i := 0; i < 50; i += 2 {
		g.remove(i)
		live[i] = false
	}
	checkCells(t, g, live)
	got := g.rangeAppend(geom.Point{3, 3}, 0, nil)
	if len(got) != 25 || len(g.index) != 1 {
		t.Fatalf("%d survivors in %d cells, want 25 in 1", len(got), len(g.index))
	}
	for _, i := range got {
		if i%2 == 0 {
			t.Fatalf("removed slot %d still returned", i)
		}
	}
}

// TestCellsReplaceChurn: removing and refilling slots of a fixed population
// keeps the rows at their first size, and the queries match the scan.
func TestCellsReplaceChurn(t *testing.T) {
	for _, dim := range []int{2, 8} {
		t.Run(fmt.Sprintf("d=%d", dim), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(53 + dim)))
			const n = 300
			g := cellsOf(t, 1, normalPoints(rng, n, dim))
			live := make([]bool, n)
			for i := range live {
				live[i] = true
			}
			for step := range 2000 {
				i := rng.Intn(n)
				g.remove(i)
				p := normalPoints(rng, 1, dim)[0]
				if err := g.admit(p); err != nil {
					t.Fatal(err)
				}
				g.replace(i, p)
				if g.rows.Len() != n || len(g.at) != n {
					t.Fatalf("step %d: %d rows, %d places for %d slots", step, g.rows.Len(), len(g.at), n)
				}
				if step%400 == 399 {
					checkCells(t, g, live)
					checkRange(t, g, live, normalPoints(rng, 1, dim)[0], rng.Float64()*4)
				}
			}
			checkCells(t, g, live)
		})
	}
}

// TestCellsReplaceFromEmpty: once every slot is removed, refilling one
// lists it alone.
func TestCellsReplaceFromEmpty(t *testing.T) {
	g := cellsOf(t, 1, []geom.Point{{0, 0}, {1, 1}})
	g.remove(0)
	g.remove(1)
	g.replace(1, geom.Point{3, 3})
	checkCells(t, g, []bool{false, true})
	if got := g.rangeAppend(geom.Point{3, 3}, 0.1, nil); !slices.Equal(got, []int{1}) {
		t.Fatalf("range after the refill = %v", got)
	}
}

// TestCellsEmptiedKeepsDimensionality: the first point fixes the stride of
// the rows, and deleting every object does not release it.
func TestCellsEmptiedKeepsDimensionality(t *testing.T) {
	c, _ := New(dbscan.Params{Eps: 1, MinPts: 2})
	if _, err := c.Insert(geom.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(0); err != nil {
		t.Fatal(err)
	}
	const want = "incdbscan: point dimensionality 3, clusterer has 2"
	if _, err := c.Insert(geom.Point{1, 2, 3}); err == nil || err.Error() != want {
		t.Errorf("Insert into the emptied clusterer: %v, want %q", err, want)
	}
	i, err := c.Insert(geom.Point{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.cells.rangeAppend(c.Point(i), 0, nil); i != 0 || !slices.Equal(got, []int{0}) || !c.Point(0).Equal(geom.Point{4, 5}) {
		t.Fatalf("slot %d after the refused point: range %v, point %v", i, got, c.Point(0))
	}
}

// TestCellsEpsBoundary places points exactly a radius apart (the 3-4-5
// triangle) and on floating-point-awkward offsets (0.1+0.2 against 0.3),
// many of them on cell edges, and holds every query to the kernel's verdict
// under sides that put those edges in different places.
func TestCellsEpsBoundary(t *testing.T) {
	pts := []geom.Point{
		{0, 0}, {3, 4}, {-3, -4}, {4, -3}, {5, 0}, {0, -5}, {6, 8},
		{math.Nextafter(5, 6), 0}, {math.Nextafter(5, 0), 0},
		{0.1 + 0.2, 0}, {0.3, 0}, {0, 0.1 + 0.2}, {0.1, 0.2}, {0.2, 0.1},
		{1e-8, 0}, {0.6, 0.8}, {1 + 0.1 + 0.2, 0}, {1.3, 0},
	}
	radii := []float64{5, 10, 0.3, 0.1 + 0.2, 1, math.Sqrt(0.05), 1e-8}
	live := make([]bool, len(pts))
	for i := range live {
		live[i] = true
	}
	for _, side := range []float64{5, 0.1 + 0.2, 1e-8} {
		t.Run(fmt.Sprintf("side=%v", side), func(t *testing.T) {
			g := cellsOf(t, side, pts)
			checkCells(t, g, live)
			for _, eps := range radii {
				for _, q := range pts {
					checkRange(t, g, live, q, eps)
				}
			}
		})
	}
}

// TestCellsListsStayBounded: a window drifting far across the plane opens a
// new list only when every list is in use, so the lists number the most
// cells ever occupied at once, and the rows the most objects ever live.
func TestCellsListsStayBounded(t *testing.T) {
	const window = 200
	g := newCells(1)
	live := make([]bool, 0, window)
	var fifo []int
	mostCells := 0
	for step := range 5000 {
		if len(fifo) == window {
			g.remove(fifo[0])
			live[fifo[0]] = false
			fifo = fifo[1:]
		}
		p := geom.Point{float64(step) / 10, math.Sin(float64(step) / 50)}
		if err := g.admit(p); err != nil {
			t.Fatal(err)
		}
		var i int
		if step < window {
			i = g.add(p)
			live = append(live, true)
		} else {
			i = step % window
			g.replace(i, p)
			live[i] = true
		}
		fifo = append(fifo, i)
		mostCells = max(mostCells, len(g.index))
	}
	checkCells(t, &g, live)
	if len(g.lists) != mostCells || g.rows.Len() != window {
		t.Fatalf("%d lists for at most %d cells at once, %d rows for a window of %d", len(g.lists), mostCells, g.rows.Len(), window)
	}
	if mostCells > 21*3 {
		t.Fatalf("a window 20 wide and 2 high occupied %d cells at once", mostCells)
	}
}

// TestCellsKeyClamp: a key is ⌊x/side⌋ while that fits, and clamps to
// ±keyClamp where it does not.
func TestCellsKeyClamp(t *testing.T) {
	cases := []struct {
		name    string
		side, x float64
		want    int64
	}{
		{"inside", 1, 0.5, 0},
		{"negative", 1, -0.5, -1},
		{"on-an-edge", 0.25, 0.75, 3},
		{"huge-positive", 1e-300, 1e300, keyClamp},
		{"huge-negative", 1, -1e30, -keyClamp},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newCells(tc.side)
			if got := g.coordKey(tc.x); got != tc.want {
				t.Fatalf("key of %v over side %v = %d, want %d", tc.x, tc.side, got, tc.want)
			}
			if lo, hi := g.coordKey(math.Nextafter(tc.x, math.Inf(-1))), g.coordKey(math.Nextafter(tc.x, math.Inf(1))); lo > tc.want || hi < tc.want {
				t.Fatalf("keys around %v not monotone: %d, %d, %d", tc.x, lo, tc.want, hi)
			}
		})
	}
}

// TestCellsRowQueries holds every live slot's query through the row of its
// list to the map walk — same ids, same order — while cells open and close
// under churn, in one keyed axis, in two and beyond them; on keys clamped
// near ±1e300; on points exactly on cell edges, where an interval spans four
// keys; and where one key is many sides. A query reads the row exactly when
// its keys lie within ±1 of its own, and asks the map otherwise.
func TestCellsRowQueries(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("d=%d", dim), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(55 + dim)))
			const n = 400
			side := 0.5 + rng.Float64()
			g := cellsOf(t, side, normalPoints(rng, n, dim))
			live, edge := make([]bool, n), make([]bool, n)
			for i := range live {
				live[i] = true
			}
			for step := range 1500 {
				i := rng.Intn(n)
				if live[i] {
					g.remove(i)
					live[i] = false
					continue
				}
				p := normalPoints(rng, 1, dim)[0]
				edge[i] = step%3 == 0
				if edge[i] {
					for a := range p {
						p[a] = math.Round(p[a]/side) * side
					}
				}
				if err := g.admit(p); err != nil {
					t.Fatal(err)
				}
				g.replace(i, p)
				live[i] = true
				if step%100 == 99 {
					checkRows(t, g)
					checkRowQueries(t, g, live)
					// A point on an edge is a sliver and asks the map; a
					// point off the edges reads the row.
					for i, ok := range live {
						if ok && rowSpan(g, i) == edge[i] {
							t.Fatalf("step %d: slot %d at %v on an edge: %v, reads the row: %v", step, i, g.rows.Point(i), edge[i], !edge[i])
						}
					}
				}
			}
		})
	}
	t.Run("clamped", func(t *testing.T) {
		pts := withFillers([]geom.Point{
			{1e300, 0.5}, {1e300, 1.5}, {math.Nextafter(1e300, 0), 0.25}, {-1e300, 3.5},
			{-1e300, 4.25}, {0.5, 1e300}, {0.5, -1e300}, {1e300, 1e300}, {0.5, 0.5},
		})
		g := cellsOf(t, 1, pts)
		live := make([]bool, len(pts))
		for i := range live {
			live[i] = true
		}
		checkCells(t, g, live)
		if tabled := checkRowQueries(t, g, live); tabled != len(pts) {
			t.Fatalf("%d of %d queries read the row", tabled, len(pts))
		}
		if got := g.rangeOf(0, nil); !slices.Equal(got, []int{0, 1}) {
			t.Fatalf("slot 0 among clamped keys: %v", got)
		}
	})
	t.Run("sliver", func(t *testing.T) {
		// 3 and 2 lie on cell edges: the interval [3 − r, 3 + r] ends just
		// past 4 and just short of 2, so its keys run from 1 to 4.
		pts := withFillers([]geom.Point{{3, 0}, {2, 0}, {4, 0}, {1.5, 0}, {4.5, 0}, {2, 1}, {4, -1}, {3, 0.5}})
		for _, dim := range []int{1, 2} {
			rows := make([]geom.Point, len(pts))
			for i, p := range pts {
				rows[i] = p[:dim]
			}
			g := cellsOf(t, 1, rows)
			live := make([]bool, len(pts))
			for i := range live {
				live[i] = true
			}
			checkCells(t, g, live)
			lo, hi, _ := g.bounds(g.rows.Point(0), g.side)
			if lo[0] != 1 || hi[0] != 4 || rowSpan(g, 0) {
				t.Fatalf("d=%d: slot 0 spans keys %d…%d (row read: %v), want the sliver 1…4 through the map", dim, lo[0], hi[0], rowSpan(g, 0))
			}
			checkRowQueries(t, g, live)
			want := [][]int{1: {1, 5, 0, 7, 2, 6}, 2: {1, 0, 7, 2}}[dim]
			if got := g.rangeOf(0, nil); !slices.Equal(got, want) {
				t.Fatalf("d=%d: slot 0's sliver query gave %v, want %v", dim, got, want)
			}
		}
	})
	// Far from the origin one step outward is several keys: at 2⁵⁵ over side
	// 1 the interval spans −4…+8 keys from its own, at 2⁶⁰ its lower end
	// falls 128 keys below the clamp; and where cellTiny is several sides,
	// the interval spans ten keys. Each query asks the map.
	t.Run("beyond", func(t *testing.T) {
		cases := []struct {
			name   string
			side   float64
			pts    []geom.Point
			lo, hi int64 // slot 0's interval, in keys from its own
		}{
			{"2^55", 1, withFillers([]geom.Point{{0x1p55}, {0x1p55 - 4}, {0x1p55 + 8}, {0x1p55 + 16}, {0x1p55 - 8}}), -4, 8},
			{"2^60", 1, withFillers([]geom.Point{{0x1p60}, {0x1p60 - 128}, {0x1p60 + 256}, {0x1p60 - 256}}), -128, 0},
			{"tiny-side", 3e-161, nil, -5, 4},
		}
		for i := range 100 {
			cases[2].pts = append(cases[2].pts, geom.Point{float64(i) * 1e-160})
		}
		for _, tc := range cases {
			g := cellsOf(t, tc.side, tc.pts)
			live := make([]bool, len(tc.pts))
			for i := range live {
				live[i] = true
			}
			checkCells(t, g, live)
			lo, hi, every := g.bounds(g.rows.Point(0), g.side)
			k := g.keys[g.at[0].list]
			if every || rowSpan(g, 0) || lo[0]-k[0] != tc.lo || hi[0]-k[0] != tc.hi {
				t.Fatalf("%s: slot 0 spans keys %d…%d from its own (every list: %v), want %d…%d through the map", tc.name, lo[0]-k[0], hi[0]-k[0], every, tc.lo, tc.hi)
			}
		}
	})
}

// withFillers appends to pts two hundred points in cells of their own, far
// from the rest and off the cell edges at sides 1 and below, so that a query
// spanning a hundred keys still counts fewer than there are lists and walks
// its interval.
func withFillers(pts []geom.Point) []geom.Point {
	for i := range 200 {
		p := make(geom.Point, len(pts[0]))
		for a := range p {
			p[a] = -1000.5 - 10*float64(i)
		}
		pts = append(pts, p)
	}
	return pts
}
