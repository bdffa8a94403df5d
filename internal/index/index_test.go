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
		t.Run(string(kind), func(t *testing.T) {
			idx, err := Build(kind, pts, geom.Euclidean{}, 1.0)
			if err != nil {
				t.Fatalf("Build failed: %v", err)
			}
			if idx.Len() != 50 {
				t.Errorf("Len = %d, want 50", idx.Len())
			}
			if !idx.Point(7).Equal(pts[7]) {
				t.Error("Point(7) mismatch")
			}
		})
	}
}

// TestBuildUnknownKind: a kind BuildStore does not know — a made-up name, or
// "grid", "kdtree" and "mtree", the kinds the R*-tree replaced — is refused
// with an error that names every kind there is, so the caller learns what to
// pass. Kind names are matched exactly: "" and "RStar" are as unknown as
// "bogus".
func TestBuildUnknownKind(t *testing.T) {
	for _, kind := range []Kind{"bogus", "grid", "kdtree", "mtree", "", "RStar"} {
		t.Run(fmt.Sprintf("%q", kind), func(t *testing.T) {
			_, err := Build(kind, []geom.Point{{1, 2}}, geom.Euclidean{}, 1)
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
					if got := sortedInts(idx.RangeAppend(query, eps, nil)); !reflect.DeepEqual(got, want) {
						t.Fatalf("Range mismatch (n=%d dim=%d eps=%v): got %v want %v", n, dim, eps, got, want)
					}
				}
			}
		})
	}
}

func TestEmptyIndexes(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			idx, err := Build(kind, nil, geom.Euclidean{}, 1)
			if err != nil {
				t.Fatalf("Build on empty: %v", err)
			}
			if idx.Len() != 0 {
				t.Errorf("Len = %d", idx.Len())
			}
			if got := idx.RangeAppend(geom.Point{0, 0}, 1, nil); len(got) != 0 {
				t.Errorf("Range on empty = %v", got)
			}
		})
	}
}

func TestSinglePointIndexes(t *testing.T) {
	pts := []geom.Point{{1, 2}}
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			idx, err := Build(kind, pts, geom.Euclidean{}, 1)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if got := idx.RangeAppend(geom.Point{1, 2}, 0, nil); !reflect.DeepEqual(got, []int{0}) {
				t.Errorf("self query = %v, want [0]", got)
			}
			if got := idx.RangeAppend(geom.Point{5, 5}, 1, nil); len(got) != 0 {
				t.Errorf("distant query = %v, want empty", got)
			}
		})
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []geom.Point{{0, 0}, {0, 0}, {0, 0}, {1, 1}}
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			idx, err := Build(kind, pts, geom.Euclidean{}, 0.5)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			got := sortedInts(idx.RangeAppend(geom.Point{0, 0}, 0.1, nil))
			if !reflect.DeepEqual(got, []int{0, 1, 2}) {
				t.Errorf("duplicates = %v, want [0 1 2]", got)
			}
		})
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
				_ = idx.RangeAppend(queries[i%len(queries)], 0.5, nil)
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
