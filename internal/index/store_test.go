package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index/rstar"
)

// testStore builds a store of n random 2-d points.
func testStore(n int, seed int64) *geom.Store {
	rng := rand.New(rand.NewSource(seed))
	st := geom.NewStore(2, n)
	for i := 0; i < n; i++ {
		st.AppendCoords(rng.Float64()*40, rng.Float64()*40)
	}
	return st
}

// TestEuclideanBuildIsStoreBacked pins the invariant this package enforces:
// a Build from a point slice copies once into a store and answers query for
// query — ids and order — like BuildStore over the same rows, and BuildStore
// retains the very store it was handed.
func TestEuclideanBuildIsStoreBacked(t *testing.T) {
	st := testStore(400, 8)
	pts := st.Views()
	const eps = 2.5
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			storeIdx, err := BuildStore(kind, st, geom.Euclidean{}, eps)
			if err != nil {
				t.Fatalf("BuildStore: %v", err)
			}
			if got := storeIdx.Store(); got != st {
				t.Errorf("Store = %p, want the build store %p", got, st)
			}
			idx, err := Build(kind, pts, geom.Euclidean{}, eps)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if got := idx.Store(); got == nil || got == st || got.Len() != st.Len() {
				t.Fatalf("Build is not backed by its own copy of the points (Store = %p)", got)
			}
			for i := 0; i < st.Len(); i += 37 {
				want := storeIdx.RangeAppend(st.Point(i), eps, nil)
				if got := idx.RangeAppend(pts[i], eps, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("Range differs from BuildStore at query %d: %v vs %v", i, got, want)
				}
			}
		})
	}
}

// TestRangeEpsBoundary places points exactly ε apart (the 3-4-5 triangle at
// ε = 5) and on floating-point-awkward offsets (0.1+0.2 against 0.3) and
// holds every kind to the squared-space verdicts of the index-free oracle.
// A Euclidean index answering through Distance ≤ eps would flip these.
func TestRangeEpsBoundary(t *testing.T) {
	pts := []geom.Point{
		{0, 0}, {3, 4}, {-3, -4}, {4, -3}, {5, 0}, {0, -5}, {6, 8},
		{math.Nextafter(5, 6), 0}, {math.Nextafter(5, 0), 0},
		{0.1 + 0.2, 0}, {0.3, 0}, {0, 0.1 + 0.2}, {0.1, 0.2}, {0.2, 0.1},
		{1e-8, 0}, {0.6, 0.8}, {1 + 0.1 + 0.2, 0}, {1.3, 0},
	}
	radii := []float64{5, 10, 0.3, 0.1 + 0.2, 1, math.Sqrt(0.05), 1e-8}
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			idx, err := Build(kind, pts, geom.Euclidean{}, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range radii {
				for i, q := range pts {
					want := oracleRange(pts, q, eps)
					if got := sortedInts(idx.RangeAppend(q, eps, nil)); !reflect.DeepEqual(got, want) {
						t.Errorf("eps=%v query %d %v: got %v, oracle %v", eps, i, q, got, want)
					}
				}
			}
		})
	}
}

// TestBuildRejectsMalformedInput: no input makes any kind panic. An empty
// set builds an empty index; mixed- and zero-dimensional input and a NaN or
// ±Inf coordinate are an error from every kind, and a non-finite coordinate's
// error names its row.
func TestBuildRejectsMalformedInput(t *testing.T) {
	inputs := []struct {
		name    string
		pts     []geom.Point
		wantErr string // a substring of the error from every kind; "" = none
	}{
		{"empty", nil, ""},
		{"mixed-dimension", []geom.Point{{1, 2}, {1}, {3, 4}}, "dimension"},
		{"mixed-dimension-wider-later", []geom.Point{{1}, {1, 2}}, "dimension"},
		{"zero-dimensional", []geom.Point{{}, {}}, "zero-dimensional"},
		{"nan", []geom.Point{{0, 0}, {math.NaN(), 1}, {1, 1}}, "row 1"},
		{"inf", []geom.Point{{0, 0}, {1, math.Inf(1)}, {1, 1}}, "row 1"},
	}
	for _, kind := range Kinds() {
		for _, in := range inputs {
			t.Run(fmt.Sprintf("%s/%s", kind, in.name), func(t *testing.T) {
				idx, err := Build(kind, in.pts, geom.Euclidean{}, 1)
				if in.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), in.wantErr) {
						t.Fatalf("err = %v, want one containing %q", err, in.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if idx.Len() != len(in.pts) {
					t.Fatalf("Len = %d, want %d", idx.Len(), len(in.pts))
				}
				if got := idx.RangeAppend(geom.Point{0, 0}, 0.5, nil); len(got) != 0 {
					t.Fatalf("Range on empty = %v", got)
				}
			})
		}
	}
}

// TestLeavesOffered: a packed tree of more than one leaf offers its leaves —
// every id in exactly one, inside that leaf's box, and each leaf near itself
// at any radius — and a tree that is one leaf, like the linear scan, which
// has no leaves, offers none.
func TestLeavesOffered(t *testing.T) {
	st := testStore(400, 5)
	packed, err := rstar.NewBulkStore(st, rstar.DefaultMaxEntries, 3)
	if err != nil {
		t.Fatal(err)
	}
	var lv Leaves = packed
	if lv.NumLeaves() < 2 {
		t.Fatalf("a packed tree over %d rows offers %d leaves", st.Len(), lv.NumLeaves())
	}
	seen := make([]int, st.Len())
	for i := range lv.NumLeaves() {
		ids, box := lv.Leaf(i)
		for _, id := range ids {
			seen[id]++
			if p := st.Point(id); p[0] < box[0] || p[0] > box[2] || p[1] < box[1] || p[1] > box[3] {
				t.Fatalf("id %d lies outside the box %v of its leaf %d", id, box, i)
			}
		}
		for _, eps := range []float64{0, 3, 100} {
			if near := lv.NearLeaves(i, eps, nil); !slices.Contains(near, int32(i)) {
				t.Fatalf("leaf %d is not near itself at radius %v: %v", i, eps, near)
			}
		}
	}
	for id, k := range seen {
		if k != 1 {
			t.Fatalf("id %d lies in %d leaves", id, k)
		}
	}
	small, err := rstar.NewBulkStore(testStore(rstar.DefaultMaxEntries, 5), rstar.DefaultMaxEntries, 3)
	if err != nil {
		t.Fatal(err)
	}
	if k := small.NumLeaves(); k != 0 {
		t.Fatalf("a tree that is one leaf offers %d", k)
	}
	if _, ok := any(NewLinearStore(st)).(Leaves); ok {
		t.Fatal("the linear scan offers leaves")
	}
}

// TestBulkLoadAllocs gates the packed STR build: a handful of arrays per
// level, nothing per point or per node. The pointer-node build it replaced
// made 34 185 allocations here, two per entry per level in node.mbr alone.
func TestBulkLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	st := testStore(16000, 6)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := rstar.NewBulkStore(st, rstar.DefaultMaxEntries); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("%.0f allocs per bulk load of 16 000 rows, want <= 64", allocs)
	}
}

// TestRangeAppendZeroAlloc is the hot-loop regression gate: once the result
// buffer has grown to its steady-state capacity, a store-backed range query of
// any kind must not allocate at all — the property that keeps the OPTICS
// and pdbscan loops allocation-free per query. No kind keeps per-query
// scratch, so there is nothing to warm up before counting. Skipped under the
// race detector, whose instrumentation perturbs allocation accounting.
func TestRangeAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	st := testStore(2000, 5)
	const eps = 2.0
	for _, kind := range Kinds() {
		idx, err := BuildStore(kind, st, geom.Euclidean{}, eps)
		if err != nil {
			t.Fatalf("%s: BuildStore: %v", kind, err)
		}
		t.Run(string(kind), func(t *testing.T) {
			buf := make([]int, 0, st.Len()) // steady-state capacity up front
			q, returned := 0, 0
			allocs := testing.AllocsPerRun(100, func() {
				buf = idx.RangeAppend(st.Point(q%st.Len()), eps, buf)
				returned += len(buf)
				q += 131
			})
			if allocs != 0 {
				t.Errorf("%.1f allocs per range query, want 0", allocs)
			}
			if returned == 0 {
				t.Error("the queries returned nothing: the test does not test")
			}
		})
	}
}
