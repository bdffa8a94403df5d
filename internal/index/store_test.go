package index

import (
	"fmt"
	"math"
	"math/rand"
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
// a Build from a point slice copies once into a store and lays it out leaf
// for leaf — ids, order, boxes and near leaves — like BuildStore over the
// same rows, and BuildStore retains the very store it was handed.
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
			if idx.NumLeaves() != storeIdx.NumLeaves() {
				t.Fatalf("%d leaves, BuildStore %d", idx.NumLeaves(), storeIdx.NumLeaves())
			}
			for i := range idx.NumLeaves() {
				ids, box := idx.Leaf(i)
				wantIDs, wantBox := storeIdx.Leaf(i)
				near, wantNear := idx.NearLeaves(i, eps, nil), storeIdx.NearLeaves(i, eps, nil)
				if !slices.Equal(ids, wantIDs) || !slices.Equal(box, wantBox) || !slices.Equal(near, wantNear) {
					t.Fatalf("leaf %d differs from BuildStore: %v %v near %v, vs %v %v near %v", i, ids, box, near, wantIDs, wantBox, wantNear)
				}
			}
		})
	}
}

// TestBuildRejectsMalformedInput: no input makes any kind panic. An empty
// set builds an empty index, with no leaves; mixed- and zero-dimensional input and a NaN or
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
				if idx.Len() != len(in.pts) || idx.NumLeaves() != 0 {
					t.Fatalf("Len = %d, NumLeaves = %d, want %d and none", idx.Len(), idx.NumLeaves(), len(in.pts))
				}
			})
		}
	}
}

// TestLeavesOffered: every kind lays its points out in leaves — every id in
// exactly one, inside that leaf's box, and each leaf near itself at any
// radius. The packed tree over 400 rows has many; a tree whose rows fit one
// node is one leaf, in identity order, like the linear scan.
func TestLeavesOffered(t *testing.T) {
	small := testStore(rstar.DefaultMaxEntries, 5)
	for _, c := range []struct {
		name    string
		st      *geom.Store
		kind    Kind
		oneLeaf bool
	}{
		{"rstar", testStore(400, 5), KindRStar, false},
		{"rstar-one-leaf", small, KindRStar, true},
		{"linear", testStore(400, 5), KindLinear, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			idx, err := BuildStore(c.kind, c.st, geom.Euclidean{}, 3)
			if err != nil {
				t.Fatal(err)
			}
			if one := idx.NumLeaves() == 1; one != c.oneLeaf || idx.NumLeaves() < 1 {
				t.Fatalf("%d leaves over %d rows", idx.NumLeaves(), c.st.Len())
			}
			if ids, _ := idx.Leaf(0); c.oneLeaf && !slices.Equal(ids, identity(c.st.Len())) {
				t.Fatalf("the one leaf holds %v, not every id in order", ids)
			}
			seen := make([]int, c.st.Len())
			for i := range idx.NumLeaves() {
				ids, box := idx.Leaf(i)
				for _, id := range ids {
					seen[id]++
					if p := c.st.Point(id); p[0] < box[0] || p[0] > box[2] || p[1] < box[1] || p[1] > box[3] {
						t.Fatalf("id %d lies outside the box %v of its leaf %d", id, box, i)
					}
				}
				for _, eps := range []float64{0, 3, 100} {
					if near := idx.NearLeaves(i, eps, nil); !slices.Contains(near, int32(i)) {
						t.Fatalf("leaf %d is not near itself at radius %v: %v", i, eps, near)
					}
				}
			}
			for id, k := range seen {
				if k != 1 {
					t.Fatalf("id %d lies in %d leaves", id, k)
				}
			}
		})
	}
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
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
