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
// a Euclidean (or nil-metric) Build from a point slice copies once into a
// store and answers query for query — ids and order — like BuildStore over
// the same rows; BuildStore retains the very store it was handed; the M-tree,
// the one kind that takes another metric, exposes no store under it, however
// it was built.
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
		if kind != KindMTree {
			continue // Euclidean-only, see TestRStarRejectsNonEuclidean
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

// TestBuildRejectsMalformedInput: no input makes any kind panic under any
// metric. An empty set builds an empty index; mixed- and zero-dimensional
// input and a NaN or ±Inf coordinate are an error from every kind under every
// metric, and a non-finite coordinate's error names its row. The input is
// checked before the metric, so a Euclidean-only kind refuses a non-Euclidean
// metric only where the input passes.
func TestBuildRejectsMalformedInput(t *testing.T) {
	inputs := []struct {
		name    string
		pts     []geom.Point
		wantErr string // a substring of the error from every kind; "" = none
	}{
		{"empty", nil, ""},
		{"mixed-dimension", []geom.Point{{1, 2}, {1}, {3, 4}}, "dimension"},
		{"zero-dimensional", []geom.Point{{}, {}}, "zero-dimensional"},
		{"nan", []geom.Point{{0, 0}, {math.NaN(), 1}, {1, 1}}, "row 1"},
		{"inf", []geom.Point{{0, 0}, {1, math.Inf(1)}, {1, 1}}, "row 1"},
	}
	for _, kind := range Kinds() {
		for _, m := range []geom.Metric{geom.Euclidean{}, geom.Manhattan{}} {
			for _, in := range inputs {
				t.Run(fmt.Sprintf("%s/%s/%s", kind, m.Name(), in.name), func(t *testing.T) {
					idx, err := Build(kind, in.pts, m, 1)
					wantErr := in.wantErr
					if wantErr == "" && kind != KindMTree && m.Name() != "euclidean" {
						wantErr = "only the Euclidean metric"
					}
					if wantErr != "" {
						if err == nil || !strings.Contains(err.Error(), wantErr) {
							t.Fatalf("err = %v, want one containing %q", err, wantErr)
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
}

// TestStoreDemotionOnDelete: a deletion leaves a store with a row the index
// no longer holds, so the one kind that deletes — the dynamic R*-tree — must
// never advertise a store, must stop returning the deleted id and must keep
// returning its neighbours.
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
	if StoreOf(rt) != nil {
		t.Error("rstar: dynamic tree advertises a store after a delete")
	}
	if rt.Len() != 99 {
		t.Errorf("rstar: Len %d after one delete of 100", rt.Len())
	}
	ids := sortedInts(rt.Range(pts[7], 1))
	if want := []int{6, 8}; !reflect.DeepEqual(ids, want) {
		t.Errorf("rstar: range around the deleted point = %v, want %v", ids, want)
	}
}

// TestDemotedTreeReportsNoLeaves: a tree that can be mutated never offers
// leaves — incremental DBSCAN and the streaming site hold the dynamic R*-tree
// — so its unseen-aware query is the plain one, before and after each
// mutation, whatever counts the caller still holds from a static tree over
// the same rows.
func TestDemotedTreeReportsNoLeaves(t *testing.T) {
	st := testStore(400, 5)
	const eps = 3.0
	packed, err := rstar.NewBulkStore(st, rstar.DefaultMaxEntries, eps)
	if err != nil {
		t.Fatal(err)
	}
	leafOf, leaves := LeavesOf(packed)
	if len(leafOf) != st.Len() || leaves < 2 {
		t.Fatalf("packed tree offers %d leaves over %d ids", leaves, len(leafOf))
	}
	stale := make([]int32, leaves) // every leaf exhausted
	if got, want := RangeIntoIDUnseen(packed, 3, eps, 1, stale, nil), RangeIntoID(packed, 3, eps, nil); len(got) >= len(want) {
		t.Fatalf("packed tree: unseen-aware %v, plain %v: the stale counts leave nothing out", got, want)
	}
	rows := map[string]func(tr *rstar.Tree) error{
		"rstar/Insert": func(tr *rstar.Tree) error { return tr.Insert(geom.Point{1, 1}) },
		"rstar/Delete": func(tr *rstar.Tree) error { return tr.Delete(17) },
		"rstar/ReplaceAt": func(tr *rstar.Tree) error {
			if err := tr.Delete(17); err != nil {
				return err
			}
			return tr.ReplaceAt(17, geom.Point{2, 2})
		},
	}
	for name, mutate := range rows {
		t.Run(name, func(t *testing.T) {
			idx, err := rstar.New(st.Views())
			if err != nil {
				t.Fatal(err)
			}
			for _, stage := range []string{"before", "after"} {
				if stage == "after" {
					if err := mutate(idx); err != nil {
						t.Fatal(err)
					}
				}
				if leafOf, leaves := LeavesOf(idx); leafOf != nil || leaves != 0 {
					t.Fatalf("%s the mutation the tree offers %d leaves", stage, leaves)
				}
				got := RangeIntoIDUnseen(idx, 3, eps, 1, stale, nil)
				if want := RangeIntoID(idx, 3, eps, nil); !reflect.DeepEqual(got, want) || len(want) < 2 {
					t.Fatalf("%s the mutation unseen-aware %v, plain %v", stage, got, want)
				}
			}
		})
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
	indexes := map[string]Index{"rstar/descent": descent}
	for _, kind := range Kinds() {
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
			buf = RangeInto(idx, st.Point(q%st.Len()), eps, buf)
			buf = RangeIntoID(idx, q%st.Len(), eps, buf)
			returned[0] += len(buf)
			buf = RangeIntoIDUnseen(idx, q%st.Len(), eps, 4, unseen, buf)
			returned[1] += len(buf)
			q += 131
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per three store-backed range queries, want 0", name, allocs)
		}
		if (returned[1] < returned[0]) != (leafOf != nil) {
			t.Errorf("%s: %d ids from the plain queries, %d from the unseen-aware ones", name, returned[0], returned[1])
		}
	}
}
