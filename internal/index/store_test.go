package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index/mtree"
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
// a Euclidean (or nil-metric) Build from a point slice copies once into a
// store and answers query for query — ids and order — like BuildStore over
// the same rows; BuildStore retains the very store it was handed; no store
// is ever exposed under another metric, however the index was built.
func TestEuclideanBuildIsStoreBacked(t *testing.T) {
	st := testStore(400, 8)
	pts := st.Views()
	const eps = 2.5
	for _, kind := range Kinds() {
		storeIdx, err := BuildStore(kind, st, geom.Euclidean{}, eps)
		if err != nil {
			t.Fatalf("%s: BuildStore: %v", kind, err)
		}
		if got := StoreOf(storeIdx); got != st {
			t.Errorf("%s: StoreOf = %p, want the build store %p", kind, got, st)
		}
		for _, m := range []geom.Metric{geom.Euclidean{}, nil} {
			idx, err := Build(kind, pts, m, eps)
			if err != nil {
				t.Fatalf("%s: Build: %v", kind, err)
			}
			if got := StoreOf(idx); got == nil || got == st || got.Len() != st.Len() {
				t.Fatalf("%s: Euclidean Build is not backed by its own copy of the points (StoreOf = %p)", kind, got)
			}
			for i := 0; i < st.Len(); i += 37 {
				want := storeIdx.Range(st.Point(i), eps)
				if got := idx.Range(pts[i], eps); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Range differs from BuildStore at query %d: %v vs %v", kind, i, got, want)
				}
				if got := RangeIntoID(idx, i, eps, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: RangeIntoID differs from BuildStore at query %d: %v vs %v", kind, i, got, want)
				}
			}
		}
		if kind == KindRStar {
			continue // Euclidean-only
		}
		for _, build := range []func() (Index, error){
			func() (Index, error) { return Build(kind, pts, geom.Manhattan{}, eps) },
			func() (Index, error) { return BuildStore(kind, st, geom.Manhattan{}, eps) },
		} {
			idx, err := build()
			if err != nil {
				t.Fatalf("%s: manhattan build: %v", kind, err)
			}
			if StoreOf(idx) != nil {
				t.Errorf("%s: StoreOf exposed a store under a non-Euclidean metric", kind)
			}
		}
	}
}

// TestRangeEpsBoundary places points exactly ε apart (the 3-4-5 triangle at
// ε = 5) and on floating-point-awkward offsets (0.1+0.2 against 0.3) and
// holds every kind — and the R*- and M-tree again after an Insert demoted
// their store — to the squared-space verdicts of the index-free oracle. A
// Euclidean index answering through Distance ≤ eps would flip these.
func TestRangeEpsBoundary(t *testing.T) {
	pts := []geom.Point{
		{0, 0}, {3, 4}, {-3, -4}, {4, -3}, {5, 0}, {0, -5}, {6, 8},
		{math.Nextafter(5, 6), 0}, {math.Nextafter(5, 0), 0},
		{0.1 + 0.2, 0}, {0.3, 0}, {0, 0.1 + 0.2}, {0.1, 0.2}, {0.2, 0.1},
		{1e-8, 0}, {0.6, 0.8}, {1 + 0.1 + 0.2, 0}, {1.3, 0},
	}
	radii := []float64{5, 10, 0.3, 0.1 + 0.2, 1, math.Sqrt(0.05), 1e-8}
	check := func(t *testing.T, idx Index, pts []geom.Point) {
		t.Helper()
		for _, eps := range radii {
			for i, q := range pts {
				want := oracleRange(pts, q, eps)
				if got := sortedInts(idx.Range(q, eps)); !reflect.DeepEqual(got, want) {
					t.Errorf("eps=%v query %d %v: got %v, oracle %v", eps, i, q, got, want)
				}
				if got := sortedInts(RangeIntoID(idx, i, eps, nil)); !reflect.DeepEqual(got, want) {
					t.Errorf("eps=%v by-id query %d %v: got %v, oracle %v", eps, i, q, got, want)
				}
			}
		}
	}
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			idx, err := Build(kind, pts, geom.Euclidean{}, 5)
			if err != nil {
				t.Fatal(err)
			}
			check(t, idx, pts)
		})
	}
	grown := append(append([]geom.Point(nil), pts...), geom.Point{-4, 3})
	st, err := geom.FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("rstar-demoted", func(t *testing.T) {
		tr, err := rstar.NewBulkStore(st, rstar.DefaultMaxEntries)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(grown[len(pts)]); err != nil {
			t.Fatal(err)
		}
		check(t, tr, grown)
	})
	t.Run("mtree-demoted", func(t *testing.T) {
		tr, err := mtree.New(pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Store() == nil {
			t.Fatal("mtree.New over Euclidean points is not store-backed")
		}
		if err := tr.Insert(grown[len(pts)]); err != nil {
			t.Fatal(err)
		}
		check(t, tr, grown)
	})
}

// TestBuildRejectsMalformedInput: no input makes any kind panic. An empty
// set builds an empty index; mixed- and zero-dimensional input is an error
// from every kind under every metric; NaN and Inf coordinates are rejected
// by the R*-tree and the M-tree and indexed (never matched) by the others.
func TestBuildRejectsMalformedInput(t *testing.T) {
	inputs := []struct {
		name      string
		pts       []geom.Point
		wantErr   bool // from every kind
		treesOnly bool // error from the R*-tree and the M-tree only
	}{
		{"empty", nil, false, false},
		{"mixed-dimension", []geom.Point{{1, 2}, {1}, {3, 4}}, true, false},
		{"zero-dimensional", []geom.Point{{}, {}}, true, false},
		{"nan", []geom.Point{{0, 0}, {math.NaN(), 1}, {1, 1}}, false, true},
		{"inf", []geom.Point{{0, 0}, {1, math.Inf(1)}, {1, 1}}, false, true},
	}
	for _, kind := range Kinds() {
		for _, m := range []geom.Metric{geom.Euclidean{}, geom.Manhattan{}} {
			if kind == KindRStar && m.Name() != "euclidean" {
				continue
			}
			for _, in := range inputs {
				t.Run(fmt.Sprintf("%s/%s/%s", kind, m.Name(), in.name), func(t *testing.T) {
					idx, err := Build(kind, in.pts, m, 1)
					wantErr := in.wantErr || (in.treesOnly && (kind == KindRStar || kind == KindMTree))
					if (err != nil) != wantErr {
						t.Fatalf("err = %v, want error: %v", err, wantErr)
					}
					if err != nil {
						return
					}
					if idx.Len() != len(in.pts) {
						t.Fatalf("Len = %d, want %d", idx.Len(), len(in.pts))
					}
					if got := idx.Range(geom.Point{0, 0}, 0.5); len(in.pts) == 0 && len(got) != 0 {
						t.Fatalf("Range on empty = %v", got)
					}
				})
			}
		}
	}
}

// TestStoreDemotionOnInsert: dynamic insertion outgrows the flat store, so
// the index must stop advertising it (a stale store would serve wrong row
// ids) while queries stay correct and cover the inserted point.
func TestStoreDemotionOnInsert(t *testing.T) {
	st := testStore(100, 4)

	rt, err := rstar.NewBulkStore(st, rstar.DefaultMaxEntries)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Store() == nil {
		t.Fatal("rstar: bulk store load lost its store")
	}
	if err := rt.Insert(geom.Point{100, 100}); err != nil {
		t.Fatal(err)
	}
	if rt.Store() != nil {
		t.Error("rstar: store survived a dynamic insert")
	}
	if ids := rt.Range(geom.Point{100, 100}, 0.5); len(ids) != 1 || ids[0] != 100 {
		t.Errorf("rstar: inserted point not found: %v", ids)
	}

	mt, err := mtree.NewFromStore(st, geom.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	if mt.Store() == nil {
		t.Fatal("mtree: store load lost its store")
	}
	if err := mt.Insert(geom.Point{100, 100}); err != nil {
		t.Fatal(err)
	}
	if mt.Store() != nil {
		t.Error("mtree: store survived a dynamic insert")
	}
	if ids := mt.Range(geom.Point{100, 100}, 0.5); len(ids) != 1 || ids[0] != 100 {
		t.Errorf("mtree: inserted point not found: %v", ids)
	}
}

// TestStoreDemotionOnDelete: a deletion leaves the store with a row the index
// no longer holds, so the index must stop advertising it, stop returning the
// deleted id and keep returning its neighbours.
func TestStoreDemotionOnDelete(t *testing.T) {
	st := geom.NewStore(2, 100)
	for i := 0; i < 100; i++ {
		st.AppendCoords(float64(i), 0)
	}
	rt, err := rstar.NewBulkStore(st, rstar.DefaultMaxEntries)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Delete(7); err != nil {
		t.Fatal(err)
	}
	if rt.Store() != nil || StoreOf(rt) != nil {
		t.Error("rstar: store survived a delete")
	}
	if rt.Len() != 99 {
		t.Errorf("rstar: Len %d after one delete of 100", rt.Len())
	}
	ids := sortedInts(rt.Range(st.Point(7), 1))
	if want := []int{6, 8}; !reflect.DeepEqual(ids, want) {
		t.Errorf("rstar: range around the deleted point = %v, want %v", ids, want)
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
// buffer has grown to its steady-state capacity, a store-backed range query
// must not allocate at all — the property that keeps the DBSCAN expansion
// loop allocation-free per query. That holds for the query the expansion
// issues, RangeIntoIDUnseen with every other leaf exhausted, as for the plain
// one, and for the R*-tree both when the by-id query starts at its own leaf
// (built for the radius, as BuildStore does) and when it descends (built for
// none). Skipped under the race detector, whose instrumentation perturbs
// allocation accounting.
func TestRangeAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	st := testStore(2000, 5)
	const eps = 2.0
	descent, err := rstar.NewBulkStore(st, rstar.DefaultMaxEntries)
	if err != nil {
		t.Fatal(err)
	}
	indexes := map[string]Index{"rstar/descent": descent}
	for _, kind := range []Kind{KindLinear, KindGrid, KindKDTree, KindRStar} {
		idx, err := BuildStore(kind, st, geom.Euclidean{}, eps)
		if err != nil {
			t.Fatalf("%s: BuildStore: %v", kind, err)
		}
		indexes[string(kind)] = idx
	}
	for name, idx := range indexes {
		leafOf, leaves := LeavesOf(idx)
		if (leafOf != nil) != strings.HasPrefix(name, "rstar") {
			t.Fatalf("%s: leaves on offer: %v", name, leafOf != nil)
		}
		var unseen []int32
		if leafOf != nil {
			unseen = make([]int32, leaves)
			for i := range unseen {
				unseen[i] = int32(i % 2)
			}
		}
		buf := make([]int, 0, st.Len()) // steady-state capacity up front
		q, returned := 0, [2]int{}
		allocs := testing.AllocsPerRun(100, func() {
			buf = RangeIntoID(idx, q%st.Len(), eps, buf)
			returned[0] += len(buf)
			buf = RangeIntoIDUnseen(idx, q%st.Len(), eps, 4, unseen, buf)
			returned[1] += len(buf)
			q += 131
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per pair of store-backed range queries, want 0", name, allocs)
		}
		if (returned[1] < returned[0]) != (leafOf != nil) {
			t.Errorf("%s: %d ids from the plain queries, %d from the unseen-aware ones", name, returned[0], returned[1])
		}
	}
}

// TestRangeBatchZeroAlloc gates the batched candidate-verification path of
// every index kind: verification through the fused Store kernels must not
// allocate once the result buffer and, where a kind has one, the pooled
// per-query scratch (the grid's cell walk, the M-tree's candidate collector;
// the k-d tree and the R*-tree verify leaf buckets in place and have none)
// have reached steady state — by-point and by-id queries alike. Skipped under the race detector, whose
// instrumentation perturbs allocation accounting.
func TestRangeBatchZeroAlloc(t *testing.T) {
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
		buf := make([]int, 0, st.Len()) // steady-state capacity up front
		// One warm-up query primes the pooled scratch before counting.
		buf = RangeInto(idx, st.Point(0), eps, buf)
		q := 0
		allocs := testing.AllocsPerRun(100, func() {
			buf = RangeInto(idx, st.Point(q%st.Len()), eps, buf)
			buf = RangeIntoID(idx, q%st.Len(), eps, buf)
			q += 131
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per batched range query, want 0", kind, allocs)
		}
	}
}
