package index

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

// mustLinear builds the exhaustive-scan reference index.
func mustLinear(t *testing.T, pts []geom.Point, m geom.Metric) *Linear {
	t.Helper()
	l, err := NewLinear(pts, m)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// oracleRange is the O(n) Euclidean reference no index code takes part in:
// every point within eps of q, decided in squared space, ascending ids.
func oracleRange(pts []geom.Point, q geom.Point, eps float64) []int {
	var out []int
	for i, p := range pts {
		if geom.SquaredEuclidean(q, p) <= eps*eps {
			out = append(out, i)
		}
	}
	return out
}

func sortedInts(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	return out
}

func TestBuildAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 50, 2)
	for _, kind := range Kinds() {
		idx, err := Build(kind, pts, geom.Euclidean{}, 1.0)
		if err != nil {
			t.Fatalf("Build(%s) failed: %v", kind, err)
		}
		if idx.Len() != 50 {
			t.Errorf("%s: Len = %d, want 50", kind, idx.Len())
		}
		if !idx.Point(7).Equal(pts[7]) {
			t.Errorf("%s: Point(7) mismatch", kind)
		}
	}
}

func TestBuildUnknownKind(t *testing.T) {
	if _, err := Build(Kind("bogus"), nil, nil, 1); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestRStarRejectsNonEuclidean(t *testing.T) {
	if _, err := Build(KindRStar, nil, geom.Manhattan{}, 1); err == nil {
		t.Fatal("R*-tree must reject non-Euclidean metrics")
	}
}

// Property: every index kind returns exactly the ε-neighborhoods of the
// index-free oracle, across random point sets, radii and query points.
func TestRangeAgreesWithLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, kind := range Kinds() {
		for trial := 0; trial < 6; trial++ {
			n := 1 + rng.Intn(400)
			dim := 1 + rng.Intn(3)
			pts := randomPoints(rng, n, dim)
			eps := 0.5 + rng.Float64()*4
			idx, err := Build(kind, pts, geom.Euclidean{}, eps)
			if err != nil {
				t.Fatalf("Build(%s): %v", kind, err)
			}
			for q := 0; q < 25; q++ {
				var query geom.Point
				if q%2 == 0 {
					query = pts[rng.Intn(n)] // on-point queries
				} else {
					query = randomPoints(rng, 1, dim)[0]
				}
				want := oracleRange(pts, query, eps)
				got := sortedInts(idx.Range(query, eps))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Range mismatch (n=%d dim=%d eps=%v): got %v want %v",
						kind, n, dim, eps, got, want)
				}
			}
		}
	}
}

// Property: Range with a larger radius than the grid cell hint stays exact.
func TestGridRangeLargerThanCell(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 300, 2)
	g, err := NewGrid(pts, geom.Euclidean{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		q := pts[rng.Intn(len(pts))]
		eps := 2.0 + rng.Float64()*3
		if got, want := sortedInts(g.Range(q, eps)), oracleRange(pts, q, eps); !reflect.DeepEqual(got, want) {
			t.Fatalf("grid Range(eps=%v) mismatch", eps)
		}
	}
}

// Property: index kinds agree with linear also under Manhattan and Chebyshev
// metrics (metric-capable kinds only).
func TestRangeNonEuclideanMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	metrics := []geom.Metric{geom.Manhattan{}, geom.Chebyshev{}}
	kinds := []Kind{KindLinear, KindGrid, KindKDTree, KindMTree}
	for _, m := range metrics {
		for _, kind := range kinds {
			pts := randomPoints(rng, 200, 2)
			oracle := mustLinear(t, pts, m)
			idx, err := Build(kind, pts, m, 1.0)
			if err != nil {
				t.Fatalf("Build(%s, %s): %v", kind, m.Name(), err)
			}
			for q := 0; q < 20; q++ {
				query := pts[rng.Intn(len(pts))]
				want := sortedInts(oracle.Range(query, 1.0))
				got := sortedInts(idx.Range(query, 1.0))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: Range mismatch", kind, m.Name())
				}
			}
		}
	}
}

func TestEmptyIndexes(t *testing.T) {
	for _, kind := range Kinds() {
		idx, err := Build(kind, nil, geom.Euclidean{}, 1)
		if err != nil {
			t.Fatalf("Build(%s) on empty: %v", kind, err)
		}
		if idx.Len() != 0 {
			t.Errorf("%s: Len = %d", kind, idx.Len())
		}
		if got := idx.Range(geom.Point{0, 0}, 1); len(got) != 0 {
			t.Errorf("%s: Range on empty = %v", kind, got)
		}
	}
}

func TestSinglePointIndexes(t *testing.T) {
	pts := []geom.Point{{1, 2}}
	for _, kind := range Kinds() {
		idx, err := Build(kind, pts, geom.Euclidean{}, 1)
		if err != nil {
			t.Fatalf("Build(%s): %v", kind, err)
		}
		if got := idx.Range(geom.Point{1, 2}, 0); !reflect.DeepEqual(got, []int{0}) {
			t.Errorf("%s: self query = %v, want [0]", kind, got)
		}
		if got := idx.Range(geom.Point{5, 5}, 1); len(got) != 0 {
			t.Errorf("%s: distant query = %v, want empty", kind, got)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []geom.Point{{0, 0}, {0, 0}, {0, 0}, {1, 1}}
	for _, kind := range Kinds() {
		idx, err := Build(kind, pts, geom.Euclidean{}, 0.5)
		if err != nil {
			t.Fatalf("Build(%s): %v", kind, err)
		}
		got := sortedInts(idx.Range(geom.Point{0, 0}, 0.1))
		if !reflect.DeepEqual(got, []int{0, 1, 2}) {
			t.Errorf("%s: duplicates = %v, want [0 1 2]", kind, got)
		}
	}
}

// Property: KNN results from kd-tree and linear agree on distance multisets.
func TestKNNAgreesWithLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	e := geom.Euclidean{}
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(300)
		pts := randomPoints(rng, n, 2)
		oracle := mustLinear(t, pts, e)
		kd, err := NewKDTree(pts, e)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			query := randomPoints(rng, 1, 2)[0]
			k := 1 + rng.Intn(n)
			want := oracle.KNN(query, k)
			got := kd.KNN(query, k)
			if len(got) != len(want) {
				t.Fatalf("KNN lengths differ: %d vs %d", len(got), len(want))
			}
			for i := range got {
				dw := e.Distance(query, pts[want[i]])
				dg := e.Distance(query, pts[got[i]])
				if dw != dg {
					t.Fatalf("KNN distance %d differs: %v vs %v", i, dg, dw)
				}
			}
			// Ascending order.
			for i := 1; i < len(got); i++ {
				if e.Distance(query, pts[got[i-1]]) > e.Distance(query, pts[got[i]]) {
					t.Fatal("kd-tree KNN not in ascending distance order")
				}
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(3)), 10, 2)
	kd, _ := NewKDTree(pts, nil)
	lin := mustLinear(t, pts, nil)
	for _, idx := range []KNNIndex{kd, lin} {
		if got := idx.KNN(geom.Point{0, 0}, 0); got != nil {
			t.Errorf("KNN(k=0) = %v, want nil", got)
		}
		if got := idx.KNN(geom.Point{0, 0}, 100); len(got) != 10 {
			t.Errorf("KNN(k>n) returned %d, want 10", len(got))
		}
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(nil, nil, 0); err == nil {
		t.Error("cell size 0 must be rejected")
	}
	if _, err := NewGrid(nil, nil, -1); err == nil {
		t.Error("negative cell size must be rejected")
	}
	if _, err := NewGrid([]geom.Point{{1}, {1, 2}}, nil, 1); err == nil {
		t.Error("mixed dimensionality must be rejected")
	}
	if _, err := NewKDTree([]geom.Point{{1}, {1, 2}}, nil); err == nil {
		t.Error("kdtree: mixed dimensionality must be rejected")
	}
}

func TestGridCellCount(t *testing.T) {
	pts := []geom.Point{{0, 0}, {0.1, 0.1}, {10, 10}}
	g, err := NewGrid(pts, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CellCount(); got != 2 {
		t.Errorf("CellCount = %d, want 2", got)
	}
}

// Grid must behave correctly with negative coordinates (cell hashing uses
// floor, not truncation).
func TestGridNegativeCoordinates(t *testing.T) {
	pts := []geom.Point{{-0.5, -0.5}, {0.5, 0.5}, {-1.4, -1.4}}
	g, err := NewGrid(pts, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedInts(g.Range(geom.Point{-0.5, -0.5}, 1.5))
	want := oracleRange(pts, geom.Point{-0.5, -0.5}, 1.5)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grid with negative coords: got %v want %v", got, want)
	}
}

func BenchmarkRange(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 20000, 2)
	queries := randomPoints(rng, 256, 2)
	for _, kind := range Kinds() {
		idx, err := Build(kind, pts, geom.Euclidean{}, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = idx.Range(queries[i%len(queries)], 0.5)
			}
		})
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 10000, 2)
	for _, kind := range Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(kind, pts, geom.Euclidean{}, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
