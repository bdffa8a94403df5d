package rstar

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// degenerateShapes are the inputs of dbscan's TestRunParallelDifferential a
// spatial structure trips over, each with the radius that suite clusters it
// at: exact duplicates, neighbours at exactly ε, one and eight dimensions, a
// single location, and an ε that covers the whole bounding box — plus the
// lattice again under four times its ε.
func degenerateShapes() []struct {
	name string
	pts  []geom.Point
	eps  float64
} {
	rng := rand.New(rand.NewSource(23))
	var dup, lattice []geom.Point
	for i := 0; i < 100; i++ {
		p := geom.Point{rng.Float64() * 10, rng.Float64() * 10}
		for c := 0; c < 6; c++ {
			dup = append(dup, p.Clone())
		}
	}
	for x := 0; x < 25; x++ {
		for y := 0; y < 25; y++ {
			lattice = append(lattice, geom.Point{float64(x) * 0.25, float64(y) * 0.25})
		}
	}
	line := make([]geom.Point, 512)
	for i := range line {
		line[i] = geom.Point{float64(i/64)*10 + rng.Float64()}
	}
	high := make([]geom.Point, 400)
	for i := range high {
		high[i] = make(geom.Point, 8)
		for d := range high[i] {
			high[i][d] = rng.Float64()
		}
	}
	same := make([]geom.Point, 200)
	for i := range same {
		same[i] = geom.Point{1.5, -2.5}
	}
	unit := func(n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{rng.Float64(), rng.Float64()}
		}
		return pts
	}
	return []struct {
		name string
		pts  []geom.Point
		eps  float64
	}{
		{"duplicates", dup, 0.5},
		{"boundary-lattice", lattice, 0.25},
		{"line-1d", line, 0.5},
		{"cube-8d", high, 0.45},
		{"all-identical", same, 0.5},
		{"eps-covers-bbox", unit(300), 5},
		{"lattice-wide-eps", lattice, 1}, // at fan-out 4, seven spans a leaf: more than points
	}
}

// bruteNear is what linkLeaves should list, leaf pair by leaf pair: per leaf
// the leaves whose box lies within eps of its box, ascending; how many that
// makes in all; and the fewest spans of adjacent leaves that can hold them (a
// descent visits the leaves of a tree of four levels and more out of index
// order, so its table may need more).
func bruteNear(p *packed, eps float64) (near [][]int32, listed, runs int) {
	lv, w := &p.levels[0], 2*p.dim
	near = make([][]int32, len(lv.spans))
	for i := range lv.spans {
		a := geom.Rect{Min: lv.bounds[w*i : w*i+p.dim], Max: lv.bounds[w*i+p.dim : w*(i+1)]}
		for j := range lv.spans {
			// The box-to-box distance is the point-to-box distance from the
			// nearest point of a, dimension by dimension.
			q := make(geom.Point, p.dim)
			for d := range q {
				q[d] = min(max(lv.bounds[w*j+d], a.Min[d]), a.Max[d])
			}
			b := geom.Rect{Min: lv.bounds[w*j : w*j+p.dim], Max: lv.bounds[w*j+p.dim : w*(j+1)]}
			if b.MinDistSq(q) <= eps*eps {
				if k := len(near[i]); k == 0 || near[i][k-1] != int32(j)-1 {
					runs++
				}
				near[i] = append(near[i], int32(j))
			}
		}
		listed += len(near[i])
	}
	return near, listed, runs
}

// TestLeafStartMatchesDescent holds the by-id query that starts at its own
// leaf to the descent from the root — ids and order — on the degenerate
// shapes, at the radius the table was built for, below it and above it (where
// the by-id query must descend itself). The oracle is the pointer walk of a
// twin built without a radius; the by-point query of the same tree, which
// always descends, has to agree too. The table never holds more spans than
// there are points — the small-fan-out trees of the lattice under a wide ε,
// among others, keep none — and lists, where kept, what a test of every pair
// of leaf boxes lists; fan-out 4 makes trees of five levels and more, where
// the descent's visit order is not the leaves' index order.
func TestLeafStartMatchesDescent(t *testing.T) {
	tables := map[bool]int{}
	for _, c := range degenerateShapes() {
		for _, fanout := range []int{4, DefaultMaxEntries} {
			st := storeOf(t, c.pts)
			tr, err := NewBulkStore(st, fanout, c.eps)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewBulkStore(st, fanout)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/M=%d", c.name, fanout)
			p := tr.packed
			want, listed, runs := bruteNear(p, c.eps)
			kept, n := p.near != nil, len(c.pts)
			switch {
			case kept != (p.nearEps2 == c.eps*c.eps), !kept && p.nearEps2 >= 0:
				t.Fatalf("%s: table kept: %v, squared radius %v", name, kept, p.nearEps2)
			case kept && (len(p.near) > n || len(p.near) < runs), !kept && listed <= n, runs > n && kept:
				t.Fatalf("%s: table kept: %v with %d spans; %d points, %d leaves to list, in %d spans at best", name, kept, len(p.near), n, listed, runs)
			}
			tables[kept]++
			for i := 0; kept && i < len(want); i++ {
				var got []int32
				for _, s := range p.near[p.nearEnd[i]:p.nearEnd[i+1]] {
					for j := s.first; j < s.first+s.count; j++ {
						got = append(got, j)
					}
				}
				if slices.Sort(got); !slices.Equal(got, want[i]) {
					t.Fatalf("%s: leaf %d lists %v, box pairs within ε %v", name, i, got, want[i])
				}
			}
			if twin.packed.near != nil || twin.packed.nearEps2 >= 0 {
				t.Fatalf("%s: a tree built without a radius has a table", name)
			}
			var buf, byPoint []int
			for _, eps := range []float64{c.eps, c.eps / 2, 2 * c.eps, 0} {
				for id := range c.pts {
					buf = tr.RangeAppendID(id, eps, buf)
					if want := pointerWalk(twin, c.pts[id], eps); !slices.Equal(buf, want) {
						t.Fatalf("%s: id %d eps %v: from the leaf %v, descent %v", name, id, eps, buf, want)
					}
					if byPoint = tr.RangeAppend(c.pts[id], eps, byPoint); !slices.Equal(buf, byPoint) {
						t.Fatalf("%s: id %d eps %v: by id %v, by point %v", name, id, eps, buf, byPoint)
					}
				}
			}
		}
	}
	if tables[true] < 5 || tables[false] < 2 {
		t.Fatalf("%d trees with a table, %d without: the shapes no longer cover both", tables[true], tables[false])
	}
}

// A radius that is no radius builds no table; the leaves are still on offer.
func TestNoLeafTableForUnusableRadius(t *testing.T) {
	st := storeOf(t, randomPoints(rand.New(rand.NewSource(3)), 500, 2))
	for _, hint := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr, err := NewBulkStore(st, DefaultMaxEntries, hint)
		if err != nil {
			t.Fatal(err)
		}
		if p := tr.packed; p.near != nil || p.nearEnd != nil || p.nearEps2 >= 0 {
			t.Fatalf("hint %v: table built (squared radius %v)", hint, p.nearEps2)
		}
		if leafOf, leaves := tr.Leaves(); len(leafOf) != 500 || leaves != len(tr.packed.levels[0].spans) {
			t.Fatalf("hint %v: %d leaf entries, %d leaves", hint, len(leafOf), leaves)
		}
		if got, want := tr.RangeAppendID(7, 0, nil), pointerWalk(tr, st.Point(7), 0); !slices.Equal(got, want) {
			t.Fatalf("hint %v: radius 0 by id %v, pointer walk %v", hint, got, want)
		}
	}
}

// A by-id query at a radius above the one the table was built for must not
// be answered from it: the lists are too short for that radius.
func TestLargerRadiusDescends(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(4)), 3000, 2)
	st := storeOf(t, pts)
	tr, err := NewBulkStore(st, DefaultMaxEntries, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.packed.near == nil {
		t.Fatal("no table at the radius it was asked for")
	}
	short := 0
	for id, q := range pts {
		for _, eps := range []float64{0.3000001, 3, -3} { // a negative radius squares to a large one
			want := pointerWalk(tr, q, eps)
			if got := tr.RangeAppendID(id, eps, nil); !slices.Equal(got, want) {
				t.Fatalf("id %d eps %v: %v, descent %v", id, eps, got, want)
			}
			// What the table alone would have said.
			var fromTable []int
			leaf := tr.packed.leafOf[id]
			for _, s := range tr.packed.near[tr.packed.nearEnd[leaf]:tr.packed.nearEnd[leaf+1]] {
				fromTable = tr.packed.descend(st, 1, s.first, s.count, q, eps*eps, math.MaxInt, nil, fromTable)
			}
			if len(fromTable) < len(want) {
				short++
			}
		}
	}
	if short == 0 {
		t.Fatal("the table was never too short: the test does not test")
	}
}

// The first Insert, ReplaceAt or Delete drops the packed form, and with it
// the leaves: incremental DBSCAN and the streaming site never see them.
func TestDemotedTreeReportsNoLeaves(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(5)), 400, 2)
	mutations := map[string]func(tr *Tree) error{
		"Insert": func(tr *Tree) error { return tr.Insert(geom.Point{1, 1}) },
		"Delete": func(tr *Tree) error { return tr.Delete(17) },
		"ReplaceAt": func(tr *Tree) error {
			if err := tr.Delete(17); err != nil {
				return err
			}
			return tr.ReplaceAt(17, geom.Point{2, 2})
		},
	}
	for name, mutate := range mutations {
		tr, err := NewBulkStore(storeOf(t, pts), DefaultMaxEntries, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		leafOf, leaves := tr.Leaves()
		if len(leafOf) != len(pts) || leaves == 0 || tr.packed.near == nil {
			t.Fatalf("%s: bulk tree offers %d leaves over %d ids", name, leaves, len(leafOf))
		}
		if err := mutate(tr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if leafOf, leaves := tr.Leaves(); leafOf != nil || leaves != 0 {
			t.Fatalf("%s: demoted tree still offers %d leaves", name, leaves)
		}
		// The unseen-aware query of a tree without leaves is the plain one,
		// whatever the caller still holds from before.
		stale := make([]int32, leaves)
		got := tr.RangeAppendIDUnseen(3, 1.5, 1, stale, nil)
		if want := tr.RangeAppendID(3, 1.5, nil); !slices.Equal(got, want) || len(want) < 2 {
			t.Fatalf("%s: unseen-aware %v, plain %v", name, got, want)
		}
	}
}

// checkUnseenContract holds one RangeAppendIDUnseen result to the contract
// of index.UnseenRangeAppender against the linear scan.
func checkUnseenContract(t *testing.T, st *geom.Store, leafOf []int32, id int, eps float64, enough int, unseen []int32, got []int) {
	t.Helper()
	in := make(map[int]bool, len(got))
	for _, q := range got {
		if in[q] {
			t.Fatalf("id %d eps %v: %d returned twice in %v", id, eps, q, got)
		}
		in[q] = true
		if st.DistanceSq(id, q) > eps*eps {
			t.Fatalf("id %d eps %v: %d is no neighbour", id, eps, q)
		}
	}
	var scan []int
	for q := 0; q < st.Len(); q++ {
		if st.DistanceSq(id, q) <= eps*eps {
			scan = append(scan, q)
		}
	}
	if len(scan) < enough {
		if len(got) != len(scan) {
			t.Fatalf("id %d eps %v enough %d: %d of a neighbourhood of %d returned", id, eps, enough, len(got), len(scan))
		}
		return
	}
	if len(got) < enough {
		t.Fatalf("id %d eps %v: %d returned, neighbourhood %d, enough %d", id, eps, len(got), len(scan), enough)
	}
	for _, q := range scan {
		if unseen[leafOf[q]] > 0 && !in[q] {
			t.Fatalf("id %d eps %v enough %d: neighbour %d of unseen leaf %d left out", id, eps, enough, q, leafOf[q])
		}
	}
}

// FuzzRangeUnseen derives a lattice point set (2, 3 or 8 dimensions, ties
// everywhere), a fan-out, the radius the tree is built for, the radius asked
// (that one, half, twice), enough and a vector of unseen counts from the
// fuzzed bytes, and holds RangeAppendIDUnseen to its contract against a linear
// scan for every id — and, with every count positive, to RangeAppendID: same
// ids, same order.
func FuzzRangeUnseen(f *testing.F) {
	// Seeds after degenerateShapes, as bytes: header dim, fan-out, hint·4,
	// radius, enough, unseen seed; then the coordinates.
	dup := []byte{0, 1, 2, 0, 1, 7}
	for i := 0; i < 40; i++ {
		for c := 0; c < 6; c++ {
			dup = append(dup, byte(i*5), byte(i*11))
		}
	}
	grid := []byte{0, 0, 4, 0, 1, 3} // neighbours at exactly ε = 1
	for x := 0; x < 12; x++ {
		for y := 0; y < 12; y++ {
			grid = append(grid, byte(x), byte(y))
		}
	}
	line := []byte{0, 1, 8, 1, 0, 1}
	for i := 0; i < 120; i++ {
		line = append(line, byte(i*3), 5)
	}
	cube := []byte{2, 0, 20, 2, 2, 9}
	for i := 0; i < 8*150; i++ {
		cube = append(cube, byte(i*i+3*i))
	}
	same := append([]byte{1, 1, 2, 0, 2, 5}, make([]byte, 3*200)...)
	covers := []byte{0, 1, 120, 0, 1, 2} // ε = 30 over a 16 × 16 domain
	for i := 0; i < 2*299; i++ {
		covers = append(covers, byte(i*37))
	}
	lattice := []byte{0, 1, 6, 0, 1, 4} // 300 rows on a 4 × 3 lattice: every sort key tied 75 times or more
	for i := 0; i < 300; i++ {
		lattice = append(lattice, byte(i*7%4), byte(i*5%3))
	}
	for _, seed := range [][]byte{dup, grid, line, cube, same, covers, lattice} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 6 {
			return
		}
		dim := []int{2, 3, 8}[int(in[0])%3]
		fanout := []int{4, DefaultMaxEntries}[int(in[1])%2]
		hint := float64(in[2]) / 4
		eps := []float64{hint, hint / 2, 2 * hint}[int(in[3])%3]
		enough := []int{1, 4, 40}[int(in[4])%3]
		rng := rand.New(rand.NewSource(int64(in[5])))
		in = in[6:]
		n := min(len(in)/dim, 300)
		if n == 0 {
			return
		}
		st := geom.NewStore(dim, n)
		for i := 0; i < n; i++ {
			row := st.AppendZero()
			for d := range row {
				row[d] = float64(in[i*dim+d] % 16)
			}
		}
		tr, err := NewBulkStore(st, fanout, hint)
		if err != nil {
			t.Fatal(err)
		}
		leafOf, leaves := tr.Leaves()
		if leafOf == nil {
			if len(tr.packed.levels) != 0 {
				t.Fatalf("n %d fan-out %d: %d levels and no leaves", n, fanout, len(tr.packed.levels))
			}
			return
		}
		unseen, all := make([]int32, leaves), make([]int32, leaves)
		for i := range unseen {
			unseen[i], all[i] = int32(rng.Intn(3)/2), 1 // two leaves in three are exhausted
		}
		var got, plain []int
		for id := 0; id < n; id++ {
			got = tr.RangeAppendIDUnseen(id, eps, enough, unseen, got)
			checkUnseenContract(t, st, leafOf, id, eps, enough, unseen, got)
			plain = tr.RangeAppendID(id, eps, plain)
			if got = tr.RangeAppendIDUnseen(id, eps, enough, all, got); !slices.Equal(got, plain) {
				t.Fatalf("dim %d M %d id %d eps %v: nothing seen yet %v, RangeAppendID %v", dim, fanout, id, eps, got, plain)
			}
		}
	})
}
