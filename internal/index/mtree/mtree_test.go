package mtree

import (
	"math/rand"
	"reflect"
	"sort"
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

// build copies pts into a store and builds the tree over it, the one
// construction path.
func build(pts []geom.Point, metric geom.Metric) (*Tree, error) {
	st, err := geom.FromPoints(pts)
	if err != nil {
		return nil, err
	}
	return NewFromStore(st, metric)
}

// checkInvariants walks the tree verifying that every routing entry's
// covering radius really covers its whole subtree, parent pointers are
// consistent, and every point is reachable exactly once.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	if tr.root == nil {
		if tr.size != 0 {
			t.Fatal("nil root with points")
		}
		return
	}
	seen := make(map[int32]bool)
	var maxDistTo func(n *node, pivot geom.Point) float64
	maxDistTo = func(n *node, pivot geom.Point) float64 {
		var max float64
		for _, e := range n.entries {
			if n.leaf {
				if d := tr.metric.Distance(pivot, e.pivot); d > max {
					max = d
				}
				continue
			}
			if d := maxDistTo(e.child, pivot); d > max {
				max = d
			}
		}
		return max
	}
	var walk func(n *node)
	walk = func(n *node) {
		if len(n.entries) > tr.maxEntries {
			t.Fatalf("node overfull: %d entries > %d", len(n.entries), tr.maxEntries)
		}
		for _, e := range n.entries {
			if n.leaf {
				if e.child != nil {
					t.Fatal("leaf entry with child")
				}
				if seen[e.idx] {
					t.Fatalf("point %d reachable twice", e.idx)
				}
				seen[e.idx] = true
				continue
			}
			if e.child == nil {
				t.Fatal("routing entry without child")
			}
			if e.child.parent != n {
				t.Fatal("broken parent pointer")
			}
			if worst := maxDistTo(e.child, e.pivot); worst > e.radius+1e-9 {
				t.Fatalf("covering radius %v too small: subtree point at %v", e.radius, worst)
			}
			walk(e.child)
		}
	}
	walk(tr.root)
	if len(seen) != tr.size {
		t.Fatalf("reachable %d points, size %d", len(seen), tr.size)
	}
}

func TestEmptyTree(t *testing.T) {
	tr, err := NewFromStore(geom.NewStore(1, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatal("empty tree nonzero len")
	}
	if got := tr.Range(geom.Point{0}, 1); got != nil {
		t.Errorf("Range on empty = %v", got)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewFromStoreWithFanout(geom.NewStore(1, 0), nil, 2); err == nil {
		t.Error("fan-out 2 accepted")
	}
}

func TestInvariantsAcrossGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr, _ := newTree(geom.Euclidean{}, 6)
	pts := randomPoints(rng, 600, 2)
	for i, p := range pts {
		if err := tr.insert(p); err != nil {
			t.Fatal(err)
		}
		if i&(i+1) == 0 || i == len(pts)-1 {
			checkInvariants(t, tr)
		}
	}
}

func TestInvariantsManhattan(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tr, err := build(randomPoints(rng, 400, 3), geom.Manhattan{})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
}

func TestRangeExactUnderArbitraryMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, m := range []geom.Metric{geom.Euclidean{}, geom.Manhattan{}, geom.Chebyshev{}, geom.Minkowski{P: 3}} {
		pts := randomPoints(rng, 300, 2)
		tr, err := build(pts, m)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			q := pts[rng.Intn(len(pts))]
			eps := rng.Float64() * 4
			var want []int
			for i, p := range pts {
				if m.Distance(q, p) <= eps {
					want = append(want, i)
				}
			}
			got := tr.Range(q, eps)
			sort.Ints(got)
			sort.Ints(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Range mismatch", m.Name())
			}
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := make([]geom.Point, 80)
	for i := range pts {
		pts[i] = geom.Point{2, 2}
	}
	tr, err := build(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
	if got := tr.Range(geom.Point{2, 2}, 0); len(got) != 80 {
		t.Fatalf("Range over duplicates = %d, want 80", len(got))
	}
}

// The M-tree's whole purpose is pruning: on clustered data a small-radius
// query must evaluate the metric far fewer times than a linear scan would.
func TestPruningEffectiveness(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// Two well-separated tight clusters.
	var pts []geom.Point
	for i := 0; i < 500; i++ {
		pts = append(pts, geom.Point{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1})
	}
	for i := 0; i < 500; i++ {
		pts = append(pts, geom.Point{100 + rng.NormFloat64()*0.1, 100 + rng.NormFloat64()*0.1})
	}
	tr, err := build(pts, geom.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	before := tr.DistanceCalls()
	tr.Range(geom.Point{0, 0}, 0.05)
	evals := tr.DistanceCalls() - before
	if evals >= 1000 {
		t.Fatalf("query evaluated %d distances, no better than a scan", evals)
	}
}

// Regression: duplicate-heavy data used to drive the hyperplane split into
// producing an empty node (every entry equidistant from both pivots),
// which later made descend index entries[-1]. The balanced fallback split
// must keep every node non-empty and within the fan-out.
func TestManyDuplicatesDeepTree(t *testing.T) {
	tr, err := newTree(geom.Euclidean{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tr.insert(geom.Point{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	// A couple of distinct points interleaved for good measure.
	for i := 0; i < 100; i++ {
		if err := tr.insert(geom.Point{float64(i % 7), 1}); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, tr)
	if got := len(tr.Range(geom.Point{1, 1}, 0)); got != 500+15 {
		// 500 duplicates plus the i%7==1 points (15 of 100).
		t.Fatalf("Range over duplicates = %d", got)
	}
}
