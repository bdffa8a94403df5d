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
	if tr.nodes() == nil {
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
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("empty tree: Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if got := tr.Range(geom.Point{0, 0}, 1); got != nil {
		t.Errorf("Range on empty = %v", got)
	}
	if got := tr.KNN(geom.Point{0, 0}, 3); got != nil {
		t.Errorf("KNN on empty = %v", got)
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
	if tr.Height() < 3 {
		t.Fatalf("expected a deep tree, height %d", tr.Height())
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

func TestRangeCountMatchesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := randomPoints(rng, 800, 2)
	tr, _ := New(pts)
	for trial := 0; trial < 50; trial++ {
		q := pts[rng.Intn(len(pts))]
		eps := rng.Float64() * 3
		if got, want := tr.RangeCount(q, eps), len(tr.Range(q, eps)); got != want {
			t.Fatalf("RangeCount = %d, Range size = %d", got, want)
		}
	}
}

func TestKNNOrderingAndCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pts := randomPoints(rng, 500, 2)
	tr, _ := New(pts)
	e := geom.Euclidean{}
	q := geom.Point{0.5, -0.5}
	k := 25
	got := tr.KNN(q, k)
	if len(got) != k {
		t.Fatalf("KNN returned %d, want %d", len(got), k)
	}
	// Ascending order.
	for i := 1; i < len(got); i++ {
		if e.Distance(q, pts[got[i-1]]) > e.Distance(q, pts[got[i]])+1e-12 {
			t.Fatal("KNN not ascending")
		}
	}
	// Completeness: the kth distance bounds every non-returned point.
	kth := e.Distance(q, pts[got[k-1]])
	inResult := make(map[int]bool, k)
	for _, i := range got {
		inResult[i] = true
	}
	for i, p := range pts {
		if !inResult[i] && e.Distance(q, p) < kth-1e-12 {
			t.Fatalf("point %d closer than kth neighbor but missing", i)
		}
	}
}

func TestKNNWholeTree(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pts := randomPoints(rng, 40, 2)
	tr, _ := New(pts)
	got := tr.KNN(geom.Point{0, 0}, 100)
	if len(got) != 40 {
		t.Fatalf("KNN(k>n) returned %d, want 40", len(got))
	}
	sort.Ints(got)
	want := make([]int, 40)
	for i := range want {
		want[i] = i
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("KNN(k>n) must return every point exactly once")
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
	if h := tr.Height(); h < 2 || h > 6 {
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
func bulkOf(pts []geom.Point) (*Tree, error) {
	if len(pts) == 0 {
		return NewBulkStore(geom.NewStore(2, 0), DefaultMaxEntries)
	}
	st, err := geom.FromPoints(pts)
	if err != nil {
		return nil, err
	}
	return NewBulkStore(st, DefaultMaxEntries)
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
		checkInvariants(t, tr)
	}
}

func TestBulkHighDimInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr, err := bulkOf(randomPoints(rng, 2000, 4))
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
}

func TestBulkValidation(t *testing.T) {
	if _, err := bulkOf([]geom.Point{{1, 2}, {1}}); err == nil {
		t.Error("mixed dims accepted")
	}
	if _, err := bulkOf([]geom.Point{{math.NaN(), 0}}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := NewBulkStore(geom.NewStore(2, 0), 2); err == nil {
		t.Error("tiny fanout accepted")
	}
}

func TestBulkThenInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tr, err := bulkOf(randomPoints(rng, 500, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range randomPoints(rng, 500, 2) {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, tr)
	if tr.Len() != 1000 {
		t.Fatalf("Len=%d", tr.Len())
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

func TestRangeRectMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := randomPoints(rng, 800, 2)
	tr, err := bulkOf(pts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		a, b := randomPoints(rng, 1, 2)[0], randomPoints(rng, 1, 2)[0]
		q := geom.RectFromPoint(a).ExtendPoint(b)
		var want []int
		for i, p := range pts {
			if q.Contains(p) {
				want = append(want, i)
			}
		}
		got := tr.RangeRect(q)
		sort.Ints(got)
		sort.Ints(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window query mismatch: got %d, want %d results", len(got), len(want))
		}
	}
	if got := (&Tree{}).RangeRect(geom.RectFromPoint(geom.Point{0, 0})); got != nil {
		t.Fatalf("empty tree window query = %v", got)
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

// pointerWalk answers a range query from the pointer form alone, with
// per-point distance tests: the reference the packed descent and the fused
// leaf verification must match element for element.
func pointerWalk(tr *Tree, q geom.Point, eps float64) []int {
	var out []int
	var walk func(n *node)
	walk = func(n *node) {
		for _, id := range n.ids {
			if geom.SquaredEuclidean(q, tr.Point(id)) <= eps*eps {
				out = append(out, id)
			}
		}
		for _, e := range n.entries {
			if e.rect.MinDistSq(q) <= eps*eps {
				walk(e.child)
			}
		}
	}
	if root := tr.nodes(); root != nil {
		walk(root)
	}
	return out
}

// TestPackedRangeMatchesPointerWalk is the order-sensitive oracle of the
// packed query: for every id and three radii, RangeAppendID on a fresh bulk
// tree equals the pointer walk of a second bulk tree over the same store
// that was made to materialise — same ids, same order.
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
		st := storeOf(t, c.pts)
		packedTree, err := NewBulkStore(st, DefaultMaxEntries)
		if err != nil {
			t.Fatal(err)
		}
		pointerTree, err := NewBulkStore(st, DefaultMaxEntries)
		if err != nil {
			t.Fatal(err)
		}
		var buf []int
		for _, eps := range c.eps {
			for id := range c.pts {
				buf = packedTree.RangeAppendID(id, eps, buf)
				want := pointerWalk(pointerTree, c.pts[id], eps)
				if !slices.Equal(buf, want) {
					t.Fatalf("%s: id %d eps %v: packed %v, pointer walk %v", c.name, id, eps, buf, want)
				}
			}
		}
		if packedTree.root != nil || packedTree.packed == nil {
			t.Fatalf("%s: range queries materialised the pointer form", c.name)
		}
	}
}

// TestBulkConcurrentReaders: range queries on the packed form may run while
// other readers make the tree materialise its pointer form. Run under -race.
func TestBulkConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	pts := randomPoints(rng, 4000, 2)
	st := storeOf(t, pts)
	ref, err := NewBulkStore(st, DefaultMaxEntries)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.6
	want := make([][]int, len(pts))
	for id := range pts {
		want[id] = ref.RangeAppendID(id, eps, nil)
	}
	wantHeight, wantKNN := ref.Height(), ref.KNN(pts[0], 5)

	tr, err := NewBulkStore(st, DefaultMaxEntries)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []int
			for id := g; id < len(pts); id += 8 {
				buf = tr.RangeAppendID(id, eps, buf)
				if !slices.Equal(buf, want[id]) {
					t.Errorf("id %d: %v, want %v", id, buf, want[id])
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if h := tr.Height(); h != wantHeight {
					t.Errorf("Height %d, want %d", h, wantHeight)
					return
				}
				if got := tr.KNN(pts[0], 5); !slices.Equal(got, wantKNN) {
					t.Errorf("KNN %v, want %v", got, wantKNN)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzBulkRange derives a small lattice point set (ties everywhere) and a
// radius from the fuzzed bytes and holds the bulk-loaded tree to two
// references: its range result, sorted, is the linear scan's, and as
// returned it is the pointer walk's of a materialised twin — and what verifying
// the leaves LeavesInReach names returns.
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
		twin, err := NewBulkStore(st, DefaultMaxEntries)
		if err != nil {
			t.Fatal(err)
		}
		eps2 := eps * eps
		_, leaves := bulk.Leaves()
		var buf, reached, byLeaf []int
		for id := 0; id < n; id++ {
			q := st.Point(id)
			buf = bulk.RangeAppend(q, eps, buf)
			if want := pointerWalk(twin, q, eps); !slices.Equal(buf, want) {
				t.Fatalf("dim %d n %d id %d eps %v: packed %v, pointer walk %v", dim, n, id, eps, buf, want)
			}
			if leaves > 0 {
				reached, byLeaf = bulk.LeavesInReach(q, eps, reached[:0]), byLeaf[:0]
				for _, l := range reached {
					byLeaf = st.VerifyRangeSq(q, bulk.Leaf(l), eps2, byLeaf)
				}
				if !slices.Equal(byLeaf, buf) {
					t.Fatalf("dim %d n %d id %d eps %v: leaves in reach give %v, RangeAppend %v", dim, n, id, eps, byLeaf, buf)
				}
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
