package index_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// The tests of this file hold every kind's leaves to an index-free oracle
// through the one walk that reads them, dbscan.Neighbours: a kind whose
// layout loses, repeats or misplaces an id, or whose NearLeaves misses a
// leaf, lists a neighbourhood the oracle does not.

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

// checkOracle fails unless every id's neighbourhood over idx, sorted, is the
// oracle's.
func checkOracle(t *testing.T, idx index.Index, pts []geom.Point, eps float64) {
	t.Helper()
	nb := dbscan.Neighbours(idx, eps)
	var got []int
	for i, q := range pts {
		got = nb.Of(i, got)
		sorted := slices.Clone(got)
		slices.Sort(sorted)
		if want := oracleRange(pts, q, eps); !slices.Equal(sorted, want) {
			t.Fatalf("n=%d dim=%d eps=%v id %d: neighbours %v, oracle %v", len(pts), len(q), eps, i, sorted, want)
		}
	}
}

// Property: over every index kind, each id's ε-neighbourhood is the
// index-free oracle's, across random point sets and radii — the R*-tree, the
// one kind that reads the radius it is built for, also when built for half
// or for four times the radius it is walked at.
func TestNeighboursAgreeWithOracle(t *testing.T) {
	type build struct {
		name string
		kind index.Kind
		hint float64 // the build radius, in multiples of the walk radius
	}
	var builds []build
	for _, kind := range index.Kinds() {
		builds = append(builds, build{string(kind), kind, 1})
	}
	builds = append(builds, build{"rstar-hint0.5x", index.KindRStar, 0.5}, build{"rstar-hint4x", index.KindRStar, 4})
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 6; trial++ {
				pts := randomPoints(rng, 1+rng.Intn(400), 1+rng.Intn(3))
				eps := 0.5 + rng.Float64()*4
				idx, err := index.Build(b.kind, pts, geom.Euclidean{}, b.hint*eps)
				if err != nil {
					t.Fatal(err)
				}
				checkOracle(t, idx, pts, eps)
			}
		})
	}
}

// TestSinglePointIndexes: a one-point index, of every kind, is one leaf that
// holds id 0 under the point's degenerate box and is near itself, and the
// point is its own neighbourhood at ε = 0 and at ε = 1.
func TestSinglePointIndexes(t *testing.T) {
	pts := []geom.Point{{1, 2}}
	for _, kind := range index.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			idx, err := index.Build(kind, pts, geom.Euclidean{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if idx.NumLeaves() != 1 {
				t.Fatalf("%d leaves, want 1", idx.NumLeaves())
			}
			if ids, box := idx.Leaf(0); !slices.Equal(ids, []int{0}) || !slices.Equal(box, []float64{1, 2, 1, 2}) {
				t.Fatalf("leaf 0 holds %v in box %v, want [0] in [1 2 1 2]", ids, box)
			}
			if near := idx.NearLeaves(0, 0, nil); !slices.Equal(near, []int32{0}) {
				t.Fatalf("near leaves %v, want [0]", near)
			}
			for _, eps := range []float64{0, 1} {
				if got := dbscan.Neighbours(idx, eps).Of(0, nil); !slices.Equal(got, []int{0}) {
					t.Errorf("ε %v: neighbours %v, want [0]", eps, got)
				}
			}
		})
	}
}

// TestDuplicatePoints: exact duplicates are each other's neighbourhood, at a
// small ε and at ε = 0, on every kind, and a point apart from them is its
// own.
func TestDuplicatePoints(t *testing.T) {
	pts := []geom.Point{{0, 0}, {0, 0}, {0, 0}, {1, 1}}
	for _, kind := range index.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			idx, err := index.Build(kind, pts, geom.Euclidean{}, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range []float64{0.1, 0} {
				got := dbscan.Neighbours(idx, eps).Of(1, nil)
				if slices.Sort(got); !slices.Equal(got, []int{0, 1, 2}) {
					t.Errorf("ε %v: duplicates %v, want [0 1 2]", eps, got)
				}
				checkOracle(t, idx, pts, eps)
			}
		})
	}
}

// TestNeighboursEpsBoundary places points exactly ε apart (the 3-4-5 triangle
// at ε = 5) and on floating-point-awkward offsets (0.1+0.2 against 0.3) and
// holds every kind to the squared-space verdicts of the index-free oracle. A
// walk deciding through Distance ≤ eps would flip these.
func TestNeighboursEpsBoundary(t *testing.T) {
	pts := []geom.Point{
		{0, 0}, {3, 4}, {-3, -4}, {4, -3}, {5, 0}, {0, -5}, {6, 8},
		{math.Nextafter(5, 6), 0}, {math.Nextafter(5, 0), 0},
		{0.1 + 0.2, 0}, {0.3, 0}, {0, 0.1 + 0.2}, {0.1, 0.2}, {0.2, 0.1},
		{1e-8, 0}, {0.6, 0.8}, {1 + 0.1 + 0.2, 0}, {1.3, 0},
	}
	for _, kind := range index.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			idx, err := index.Build(kind, pts, geom.Euclidean{}, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range []float64{5, 10, 0.3, 0.1 + 0.2, 1, math.Sqrt(0.05), 1e-8} {
				checkOracle(t, idx, pts, eps)
			}
		})
	}
}

func BenchmarkNeighbours(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 20000, 2)
	for _, kind := range index.Kinds() {
		idx, err := index.Build(kind, pts, geom.Euclidean{}, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		nb := dbscan.Neighbours(idx, 0.5)
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			var buf []int
			for i := 0; i < b.N; i++ {
				buf = nb.Of(i*7919%len(pts), buf)
			}
		})
	}
}
