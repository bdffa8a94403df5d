package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
				want := storeIdx.Range(st.Point(i), eps)
				if got := idx.Range(pts[i], eps); !reflect.DeepEqual(got, want) {
					t.Fatalf("Range differs from BuildStore at query %d: %v vs %v", i, got, want)
				}
				if got := idx.RangeAppendID(i, eps, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("RangeAppendID differs from BuildStore at query %d: %v vs %v", i, got, want)
				}
			}
		})
	}
}

// TestRangeEpsBoundary places points exactly ε apart (the 3-4-5 triangle at
// ε = 5) and on floating-point-awkward offsets (0.1+0.2 against 0.3) and
// holds every kind — and the dynamic R*-tree after an Insert — to the
// squared-space verdicts of the index-free oracle.
// A Euclidean index answering through Distance ≤ eps would flip these.
func TestRangeEpsBoundary(t *testing.T) {
	pts := []geom.Point{
		{0, 0}, {3, 4}, {-3, -4}, {4, -3}, {5, 0}, {0, -5}, {6, 8},
		{math.Nextafter(5, 6), 0}, {math.Nextafter(5, 0), 0},
		{0.1 + 0.2, 0}, {0.3, 0}, {0, 0.1 + 0.2}, {0.1, 0.2}, {0.2, 0.1},
		{1e-8, 0}, {0.6, 0.8}, {1 + 0.1 + 0.2, 0}, {1.3, 0},
	}
	radii := []float64{5, 10, 0.3, 0.1 + 0.2, 1, math.Sqrt(0.05), 1e-8}
	check := func(t *testing.T, idx interface {
		Range(geom.Point, float64) []int
	}, pts []geom.Point) {
		t.Helper()
		for _, eps := range radii {
			for i, q := range pts {
				want := oracleRange(pts, q, eps)
				if got := sortedInts(idx.Range(q, eps)); !reflect.DeepEqual(got, want) {
					t.Errorf("eps=%v query %d %v: got %v, oracle %v", eps, i, q, got, want)
				}
				static, ok := idx.(Index)
				if !ok {
					continue
				}
				if got := sortedInts(static.RangeAppendID(i, eps, nil)); !reflect.DeepEqual(got, want) {
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
	t.Run("rstar-dynamic", func(t *testing.T) {
		tr, err := rstar.New(pts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(grown[len(pts)]); err != nil {
			t.Fatal(err)
		}
		check(t, tr, grown)
	})
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
				if got := idx.Range(geom.Point{0, 0}, 0.5); len(got) != 0 {
					t.Fatalf("Range on empty = %v", got)
				}
			})
		}
	}
}

// TestStoreDemotionOnDelete: a deletion leaves a store with a row the tree
// no longer holds, so the one tree that deletes — the dynamic R*-tree — is
// no Index (it has no store to offer, nor leaves), must stop returning the
// deleted id and must keep returning its neighbours.
func TestStoreDemotionOnDelete(t *testing.T) {
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{float64(i), 0}
	}
	rt, err := rstar.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Delete(7); err != nil {
		t.Fatal(err)
	}
	if _, ok := any(rt).(Index); ok {
		t.Error("rstar: the dynamic tree is an Index")
	}
	if _, ok := any(rt).(UnseenRangeAppender); ok {
		t.Error("rstar: the dynamic tree offers leaves")
	}
	if rt.Len() != 99 {
		t.Errorf("rstar: Len %d after one delete of 100", rt.Len())
	}
	ids := sortedInts(rt.Range(pts[7], 1))
	if want := []int{6, 8}; !reflect.DeepEqual(ids, want) {
		t.Errorf("rstar: range around the deleted point = %v, want %v", ids, want)
	}
}

// TestStaleLeafCounts: the unseen-aware query of a packed tree leaves out
// what the caller's counts say it has seen — with every leaf exhausted it
// returns less than the plain query — and an index without leaves, the
// linear scan, offers none and answers the plain query whatever counts the
// caller holds.
func TestStaleLeafCounts(t *testing.T) {
	st := testStore(400, 5)
	const eps = 3.0
	t.Run("rstar", func(t *testing.T) {
		packed, err := rstar.NewBulkStore(st, rstar.DefaultMaxEntries, eps)
		if err != nil {
			t.Fatal(err)
		}
		leafOf, leaves := LeavesOf(packed)
		if len(leafOf) != st.Len() || leaves < 2 {
			t.Fatalf("packed tree offers %d leaves over %d ids", leaves, len(leafOf))
		}
		stale := make([]int32, leaves) // every leaf exhausted
		if got, want := RangeIntoIDUnseen(packed, 3, eps, 1, stale, nil), packed.RangeAppendID(3, eps, nil); len(got) >= len(want) {
			t.Fatalf("unseen-aware %v, plain %v: the stale counts leave nothing out", got, want)
		}
	})
	t.Run("linear", func(t *testing.T) {
		linear := NewLinearStore(st)
		if leafOf, leaves := LeavesOf(linear); leafOf != nil || leaves != 0 {
			t.Fatalf("linear scan offers %d leaves", leaves)
		}
		stale := make([]int32, 64) // counts the caller holds for some other index
		got := RangeIntoIDUnseen(linear, 3, eps, 1, stale, nil)
		if want := linear.RangeAppendID(3, eps, nil); !reflect.DeepEqual(got, want) || len(want) < 2 {
			t.Fatalf("unseen-aware %v, plain %v", got, want)
		}
	})
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
// any kind must not allocate at all — the property that keeps the DBSCAN
// expansion loop allocation-free per query. That holds by point and by id,
// for the query the expansion issues, RangeIntoIDUnseen with every other leaf
// exhausted, as for the plain one, and for the R*-tree both when the by-id
// query starts at its own leaf (built for the radius, as BuildStore does) and
// when it descends (built for none). No kind keeps per-query scratch, so there
// is nothing to warm up before counting. Skipped under the race detector,
// whose instrumentation perturbs allocation accounting.
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
	type named struct {
		name string
		idx  Index
	}
	indexes := []named{{"rstar/descent", descent}}
	for _, kind := range Kinds() {
		idx, err := BuildStore(kind, st, geom.Euclidean{}, eps)
		if err != nil {
			t.Fatalf("%s: BuildStore: %v", kind, err)
		}
		indexes = append(indexes, named{string(kind), idx})
	}
	for _, x := range indexes {
		name, idx := x.name, x.idx
		t.Run(name, func(t *testing.T) {
			leafOf, leaves := LeavesOf(idx)
			if (leafOf != nil) != strings.HasPrefix(name, "rstar") {
				t.Fatalf("leaves on offer: %v", leafOf != nil)
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
				buf = idx.RangeAppend(st.Point(q%st.Len()), eps, buf)
				buf = idx.RangeAppendID(q%st.Len(), eps, buf)
				returned[0] += len(buf)
				buf = RangeIntoIDUnseen(idx, q%st.Len(), eps, 4, unseen, buf)
				returned[1] += len(buf)
				q += 131
			})
			if allocs != 0 {
				t.Errorf("%.1f allocs per three range queries, want 0", allocs)
			}
			if (returned[1] < returned[0]) != (leafOf != nil) {
				t.Errorf("%d ids from the plain queries, %d from the unseen-aware ones", returned[0], returned[1])
			}
		})
	}
}
