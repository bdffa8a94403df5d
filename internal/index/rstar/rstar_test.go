package rstar

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
)

func randomPoints(rng *rand.Rand, n, dim int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for j := range p {
			p[j] = rng.NormFloat64() * 5
		}
		pts[i] = p
	}
	return pts
}

// checkInvariants verifies the structural R*-tree invariants: every
// non-root node holds between m and M entries, every routing rectangle
// tightly bounds its subtree, all leaves sit at level 0, and every point is
// reachable exactly once.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	if tr.root == nil {
		if tr.size != 0 {
			t.Fatal("nil root with nonzero size")
		}
		return
	}
	seen := make(map[int]bool)
	bound := geom.Rect{Min: make(geom.Point, tr.dim), Max: make(geom.Point, tr.dim)}
	var walk func(n *node, level int)
	walk = func(n *node, level int) {
		if n.level != level {
			t.Fatalf("node level %d, want %d", n.level, level)
		}
		if (n.leaf() && n.entries != nil) || (!n.leaf() && n.ids != nil) {
			t.Fatalf("level-%d node with %d entries and %d ids", n.level, len(n.entries), len(n.ids))
		}
		if n != tr.root {
			if n.count() < tr.minEntries || n.count() > tr.maxEntries {
				t.Fatalf("node entry count %d outside [%d, %d]",
					n.count(), tr.minEntries, tr.maxEntries)
			}
		} else if n.count() > tr.maxEntries {
			t.Fatalf("root overflow: %d entries", n.count())
		}
		for _, id := range n.ids {
			if seen[id] {
				t.Fatalf("point %d indexed twice", id)
			}
			seen[id] = true
		}
		for _, e := range n.entries {
			if e.child == nil {
				t.Fatal("internal entry without child")
			}
			tr.bound(e.child, bound)
			if !e.rect.Min.Equal(bound.Min) || !e.rect.Max.Equal(bound.Max) {
				t.Fatalf("stale routing rect: have %v, subtree bound %v", e.rect, bound)
			}
			walk(e.child, level-1)
		}
	}
	walk(tr.root, tr.root.level)
	if len(seen) != tr.size {
		t.Fatalf("reachable points %d, size %d", len(seen), tr.size)
	}
}

func TestEmptyTree(t *testing.T) {
	tr, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.height() != 0 {
		t.Fatalf("empty tree: Len=%d height=%d", tr.Len(), tr.height())
	}
	if got := tr.Range(geom.Point{0, 0}, 1); got != nil {
		t.Errorf("Range on empty = %v", got)
	}
}

func TestInsertValidation(t *testing.T) {
	tr, _ := New(nil)
	if err := tr.Insert(geom.Point{math.NaN(), 0}); err == nil {
		t.Error("NaN point accepted")
	}
	if err := tr.Insert(geom.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(geom.Point{0, 0, 0}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestFanoutValidation(t *testing.T) {
	if _, err := NewWithFanout(nil, 3); err == nil {
		t.Error("fan-out 3 accepted")
	}
}

func TestInvariantsAcrossGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr, _ := New(nil)
	pts := randomPoints(rng, 2000, 2)
	for i, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
		// Checking at every power of two keeps the test fast while covering
		// the first splits, the first root growth and deep trees.
		if i&(i+1) == 0 || i == len(pts)-1 {
			checkInvariants(t, tr)
		}
	}
	if tr.height() < 3 {
		t.Fatalf("expected a deep tree, height %d", tr.height())
	}
}

func TestInvariantsHighDim(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tr, err := New(randomPoints(rng, 500, 5))
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
}

func TestInvariantsSmallFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr, err := NewWithFanout(randomPoints(rng, 300, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
}

func TestInvariantsDuplicates(t *testing.T) {
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{1, 1} // all identical: degenerate MBRs everywhere
	}
	tr, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
	if got := tr.Range(geom.Point{1, 1}, 0); len(got) != 100 {
		t.Fatalf("Range over duplicates = %d, want 100", len(got))
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tr, err := New(randomPoints(rng, 5000, 2))
	if err != nil {
		t.Fatal(err)
	}
	// With fan-out 32 and 40% minimum fill, 5000 points need at least
	// ceil(log_32(5000/32))+1 = 3 levels and should stay shallow.
	if h := tr.height(); h < 2 || h > 6 {
		t.Fatalf("suspicious height %d for 5000 points", h)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, b.N, 2)
	tr, _ := New(nil)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(pts[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// bulkOf STR-loads pts through a flat store — the only bulk build.
func bulkOf(pts []geom.Point) (*Packed, error) {
	if len(pts) == 0 {
		return NewBulkStore(geom.NewStore(2, 0), DefaultMaxEntries)
	}
	st, err := geom.FromPoints(pts)
	if err != nil {
		return nil, err
	}
	return NewBulkStore(st, DefaultMaxEntries)
}

// checkPackedInvariants is checkInvariants on the packed levels of a tree of
// fan-out DefaultMaxEntries: every node but the root holds between m and M
// entries, every stored box tightly bounds its subtree, folded in order, and
// every point sits in exactly one leaf, the one leafOf names.
func checkPackedInvariants(t *testing.T, p *Packed) {
	t.Helper()
	minEntries := max(2, DefaultMaxEntries*2/5)
	seen := make([]bool, p.Len())
	bound := make([]float64, 2*p.dim)
	var walk func(level int, s span, root bool)
	walk = func(level int, s span, root bool) {
		if int(s.count) > DefaultMaxEntries || !root && int(s.count) < minEntries {
			t.Fatalf("level-%d node of %d entries outside [%d, %d]", level, s.count, minEntries, DefaultMaxEntries)
		}
		if level == 0 {
			for _, id := range p.perm[s.first : s.first+s.count] {
				if seen[id] {
					t.Fatalf("point %d indexed twice", id)
				}
				seen[id] = true
			}
			return
		}
		lv := &p.levels[level-1]
		for i := s.first; i < s.first+s.count; i++ {
			c := lv.spans[i]
			for k := c.first; k < c.first+c.count; k++ {
				var lo, hi []float64
				if level == 1 {
					lo = p.rows.Point(p.perm[k])
					hi = lo
					if p.leafOf != nil && p.leafOf[p.perm[k]] != i {
						t.Fatalf("point %d in leaf %d, leafOf says %d", p.perm[k], i, p.leafOf[p.perm[k]])
					}
				} else {
					b := p.levels[level-2].bounds[2*p.dim*int(k):]
					lo, hi = b[:p.dim], b[p.dim:2*p.dim]
				}
				for d := 0; d < p.dim; d++ {
					if k == c.first || lo[d] < bound[d] {
						bound[d] = lo[d]
					}
					if k == c.first || hi[d] > bound[p.dim+d] {
						bound[p.dim+d] = hi[d]
					}
				}
			}
			if stored := lv.bounds[2*p.dim*int(i) : 2*p.dim*int(i+1)]; !slices.Equal(stored, bound) {
				t.Fatalf("stale box of level-%d node %d: have %v, subtree bound %v", level-1, i, stored, bound)
			}
			walk(level-1, c, false)
		}
	}
	if p.Len() > 0 {
		walk(len(p.levels), span{0, p.rootCount}, true)
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("point %d in no leaf", id)
		}
	}
}

func TestBulkInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 5, 32, 33, 100, 1000, 5000} {
		tr, err := bulkOf(randomPoints(rng, n, 2))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		checkPackedInvariants(t, tr)
	}
}

func TestBulkHighDimInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr, err := bulkOf(randomPoints(rng, 2000, 4))
	if err != nil {
		t.Fatal(err)
	}
	checkPackedInvariants(t, tr)
}

func TestBulkValidation(t *testing.T) {
	if _, err := bulkOf([]geom.Point{{1, 2}, {1}}); err == nil {
		t.Error("mixed dims accepted")
	}
	if _, err := NewBulkStore(geom.NewStore(2, 0), 2); err == nil {
		t.Error("tiny fanout accepted")
	}
}

func TestBulkRangeMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pts := randomPoints(rng, 1500, 2)
	bulk, err := bulkOf(pts)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		q := pts[rng.Intn(len(pts))]
		eps := rng.Float64() * 2
		a := bulk.Range(q, eps)
		b := inc.Range(q, eps)
		sort.Ints(a)
		sort.Ints(b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("bulk and incremental disagree (eps=%v)", eps)
		}
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 100000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bulkOf(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// storeOf copies pts into a flat store.
func storeOf(t testing.TB, pts []geom.Point) *geom.Store {
	t.Helper()
	st, err := geom.FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// latticePoints draws n dim-d points with integer coordinates in [0, side),
// so STR sort keys, box edges and ε-boundaries all tie heavily.
func latticePoints(rng *rand.Rand, n, dim, side int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for j := range p {
			p[j] = float64(rng.Intn(side))
		}
		pts[i] = p
	}
	return pts
}

// levelWalk answers a range query by walking the packed levels from the root,
// entering a child when Rect.MinDistSq of its box is at most eps², testing
// each point of a leaf reached with SquaredEuclidean: the reference the
// descent — its leaf table, its 2-d bound and the fused leaf verification —
// must match element for element.
func levelWalk(p *Packed, q geom.Point, eps float64) []int {
	var out []int
	var walk func(level int, s span)
	walk = func(level int, s span) {
		if level == 0 {
			for _, id := range p.perm[s.first : s.first+s.count] {
				if geom.SquaredEuclidean(q, p.Point(id)) <= eps*eps {
					out = append(out, id)
				}
			}
			return
		}
		lv := &p.levels[level-1]
		for i := s.first; i < s.first+s.count; i++ {
			b := lv.bounds[2*p.dim*int(i) : 2*p.dim*int(i+1)]
			if (geom.Rect{Min: b[:p.dim], Max: b[p.dim:]}).MinDistSq(q) <= eps*eps {
				walk(level-1, lv.spans[i])
			}
		}
	}
	walk(len(p.levels), span{0, p.rootCount})
	return out
}

// TestPackedRangeMatchesPointerWalk is the order-sensitive oracle of the
// packed query: for every id and three radii, RangeAppendID equals the level
// walk — the walk the pointer nodes once materialised from the packed levels
// answered with — same ids, same order.
func TestPackedRangeMatchesPointerWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	cases := []struct {
		name string
		pts  []geom.Point
		eps  [3]float64
	}{
		{"2d", randomPoints(rng, 3000, 2), [3]float64{0.05, 0.7, 4}},
		{"2d-lattice", latticePoints(rng, 3000, 2, 20), [3]float64{0, 1, 2.5}},
		{"3d", randomPoints(rng, 1500, 3), [3]float64{0.3, 2, 6}},
		{"8d", randomPoints(rng, 1200, 8), [3]float64{2, 9, 14}},
		{"1d-lattice", latticePoints(rng, 500, 1, 40), [3]float64{0, 1, 7}},
		{"n=32", randomPoints(rng, 32, 2), [3]float64{0.5, 3, 40}},
		{"n=33", randomPoints(rng, 33, 2), [3]float64{0.5, 3, 40}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := NewBulkStore(storeOf(t, c.pts), DefaultMaxEntries)
			if err != nil {
				t.Fatal(err)
			}
			var buf []int
			for _, eps := range c.eps {
				for id := range c.pts {
					buf = tr.RangeAppendID(id, eps, buf)
					if want := levelWalk(tr, c.pts[id], eps); !slices.Equal(buf, want) {
						t.Fatalf("id %d eps %v: packed %v, level walk %v", id, eps, buf, want)
					}
				}
			}
		})
	}
}

// TestBulkConcurrentReaders: eight readers share one packed tree, by-id queries
// from its own leaf and by-point descents from the root. Run under -race.
func TestBulkConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	pts := randomPoints(rng, 4000, 2)
	const eps = 0.6
	tr, err := NewBulkStore(storeOf(t, pts), DefaultMaxEntries, eps)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, len(pts))
	for id := range pts {
		want[id] = levelWalk(tr, pts[id], eps)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []int
			for id := g; id < len(pts); id += 8 {
				if g%2 == 0 {
					buf = tr.RangeAppendID(id, eps, buf)
				} else {
					buf = tr.RangeAppend(pts[id], eps, buf)
				}
				if !slices.Equal(buf, want[id]) {
					t.Errorf("id %d: %v, want %v", id, buf, want[id])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzBulkRange derives a small lattice point set (ties everywhere) and a
// radius from the fuzzed bytes and holds the bulk-loaded tree to two
// references: its range result, sorted, is the linear scan's, and as
// returned it is the level walk's.
func FuzzBulkRange(f *testing.F) {
	boundary := make([]byte, 2+2*33)
	for i := range boundary {
		boundary[i] = byte(i * 7)
	}
	boundary[0], boundary[1] = 1, 12 // 2-d, eps 3
	f.Add(boundary[:2+2*32])         // n = 32: a single root leaf
	f.Add(boundary)                  // n = 33: the first split
	f.Add([]byte{0, 0, 5, 5, 5, 9})  // 1-d duplicates, eps 0
	f.Add([]byte{3, 255})
	lattice := []byte{1, 6} // 300 rows on a 4 × 3 lattice: every sort key tied 75 times or more
	for i := 0; i < 300; i++ {
		lattice = append(lattice, byte(i*7%4), byte(i*5%3))
	}
	f.Add(lattice)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		dim := int(in[0])%4 + 1
		eps := float64(in[1]) / 4
		in = in[2:]
		n := len(in) / dim
		if n > 300 {
			n = 300
		}
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
		bulk, err := NewBulkStore(st, DefaultMaxEntries)
		if err != nil {
			t.Fatal(err)
		}
		eps2 := eps * eps
		var buf []int
		for id := 0; id < n; id++ {
			q := st.Point(id)
			buf = bulk.RangeAppend(q, eps, buf)
			if want := levelWalk(bulk, q, eps); !slices.Equal(buf, want) {
				t.Fatalf("dim %d n %d id %d eps %v: packed %v, level walk %v", dim, n, id, eps, buf, want)
			}
			var scan []int
			for j := 0; j < n; j++ {
				if geom.SquaredEuclidean(q, st.Point(j)) <= eps2 {
					scan = append(scan, j)
				}
			}
			got := bulk.Range(q, eps)
			sort.Ints(got)
			if !slices.Equal(got, scan) {
				t.Fatalf("dim %d n %d id %d eps %v: range %v, linear scan %v", dim, n, id, eps, got, scan)
			}
		}
	})
}
