package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
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

// TestBuildUnknownKind: a kind BuildStore does not know — a made-up name, or
// "grid" and "kdtree", the two kinds the R*-tree replaced — is refused with
// an error that names every kind there is, so the caller learns what to pass.
// Kind names are matched exactly: "" and "RStar" are as unknown as "bogus".
func TestBuildUnknownKind(t *testing.T) {
	for _, kind := range []Kind{"bogus", "grid", "kdtree", "", "RStar"} {
		t.Run(fmt.Sprintf("%q", kind), func(t *testing.T) {
			_, err := Build(kind, []geom.Point{{1, 2}}, nil, 1)
			if err == nil {
				t.Fatal("accepted")
			}
			for _, k := range Kinds() {
				if !strings.Contains(err.Error(), string(k)) {
					t.Errorf("error %q does not name kind %s", err, k)
				}
			}
		})
	}
}

// TestRStarRejectsNonEuclidean: every kind but the M-tree — linear scan and
// R*-tree — answers under the Euclidean metric only, and
// refuses any other from Build and BuildStore alike with an error naming the
// kind.
func TestRStarRejectsNonEuclidean(t *testing.T) {
	st := testStore(50, 3)
	for _, kind := range []Kind{KindLinear, KindRStar} {
		for _, m := range []geom.Metric{geom.Manhattan{}, geom.Chebyshev{}, geom.Minkowski{P: 3}} {
			t.Run(fmt.Sprintf("%s/%s", kind, m.Name()), func(t *testing.T) {
				if _, err := BuildStore(kind, st, m, 1); err == nil || !strings.Contains(err.Error(), string(kind)) {
					t.Fatalf("BuildStore: err = %v, want a refusal naming %s", err, kind)
				}
				if _, err := Build(kind, nil, m, 1); err == nil {
					t.Fatal("Build over an empty set accepted the metric")
				}
			})
		}
	}
}

// Property: every index kind returns exactly the ε-neighborhoods of the
// index-free oracle, across random point sets, radii and query points — the
// R*-tree, the one kind that reads the radius it is built for, also when built
// for half or for four times the radius it is queried at.
func TestRangeAgreesWithLinear(t *testing.T) {
	type build struct {
		name string
		kind Kind
		hint float64 // the build radius, in multiples of the query radius
	}
	var builds []build
	for _, kind := range Kinds() {
		builds = append(builds, build{string(kind), kind, 1})
	}
	builds = append(builds, build{"rstar-hint0.5x", KindRStar, 0.5}, build{"rstar-hint4x", KindRStar, 4})
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 6; trial++ {
				n := 1 + rng.Intn(400)
				dim := 1 + rng.Intn(3)
				pts := randomPoints(rng, n, dim)
				eps := 0.5 + rng.Float64()*4
				idx, err := Build(b.kind, pts, geom.Euclidean{}, b.hint*eps)
				if err != nil {
					t.Fatal(err)
				}
				for q := 0; q < 25; q++ {
					var query geom.Point
					if q%2 == 0 {
						query = pts[rng.Intn(n)] // on-point queries
					} else {
						query = randomPoints(rng, 1, dim)[0]
					}
					want := oracleRange(pts, query, eps)
					if got := sortedInts(idx.Range(query, eps)); !reflect.DeepEqual(got, want) {
						t.Fatalf("Range mismatch (n=%d dim=%d eps=%v): got %v want %v", n, dim, eps, got, want)
					}
				}
			}
		})
	}
}

// Property: the M-tree, the one metric-space index, returns exactly the
// brute-force ε-neighborhood under Manhattan, Chebyshev and Minkowski-3.
func TestRangeNonEuclideanMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	metrics := []geom.Metric{geom.Manhattan{}, geom.Chebyshev{}, geom.Minkowski{P: 3}}
	for _, m := range metrics {
		pts := randomPoints(rng, 200, 2)
		idx, err := Build(KindMTree, pts, m, 1.0)
		if err != nil {
			t.Fatalf("Build(%s, %s): %v", KindMTree, m.Name(), err)
		}
		for q := 0; q < 20; q++ {
			query := pts[rng.Intn(len(pts))]
			var want []int
			for i, p := range pts {
				if m.Distance(query, p) <= 1.0 {
					want = append(want, i)
				}
			}
			if got := sortedInts(idx.Range(query, 1.0)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: Range = %v, brute force %v", KindMTree, m.Name(), got, want)
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
