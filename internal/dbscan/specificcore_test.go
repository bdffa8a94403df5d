package dbscan

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// checkDefinition6 verifies all three conditions of Definition 6 for every
// cluster: Scor_C ⊆ Cor_C, pairwise non-containment in Eps-neighborhoods,
// and complete coverage of Cor_C.
func checkDefinition6(t *testing.T, pts []geom.Point, res *Result) {
	t.Helper()
	e := geom.Euclidean{}
	eps := res.Params.Eps
	for id, scor := range res.Scor {
		for _, s := range scor {
			if !res.Core[s] {
				t.Fatalf("cluster %d: specific core point %d is not a core point", id, s)
			}
			if res.Labels[s] != id {
				t.Fatalf("cluster %d: specific core point %d belongs to cluster %d", id, s, res.Labels[s])
			}
		}
		// Condition 2: no specific core point inside another's neighborhood.
		for i, si := range scor {
			for _, sj := range scor[i+1:] {
				if e.Distance(pts[si], pts[sj]) <= eps {
					t.Fatalf("cluster %d: specific core points %d and %d within Eps", id, si, sj)
				}
			}
		}
		// Condition 3: every core point of the cluster is covered.
		for c := range pts {
			if !res.Core[c] || res.Labels[c] != id {
				continue
			}
			covered := false
			for _, s := range scor {
				if e.Distance(pts[c], pts[s]) <= eps {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("cluster %d: core point %d not covered by any specific core point", id, c)
			}
		}
	}
}

// checkDefinition7 recomputes every specific ε-range from scratch and
// compares with the on-the-fly values.
func checkDefinition7(t *testing.T, pts []geom.Point, res *Result) {
	t.Helper()
	e := geom.Euclidean{}
	eps := res.Params.Eps
	for _, scor := range res.Scor {
		for _, s := range scor {
			var maxDist float64
			for c := range pts {
				if c == s || !res.Core[c] {
					continue
				}
				if d := e.Distance(pts[s], pts[c]); d <= eps && d > maxDist {
					maxDist = d
				}
			}
			want := eps + maxDist
			if got := res.SpecificEps[s]; got != want {
				t.Fatalf("specific eps of %d: got %v, want %v", s, got, want)
			}
		}
	}
}

// kindOf builds an index of kind over pts for queries at eps.
func kindOf(t *testing.T, kind index.Kind, pts []geom.Point, eps float64) index.Index {
	t.Helper()
	idx, err := index.Build(kind, pts, geom.Euclidean{}, eps)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestSpecificCoreDefinitions checks Definitions 6 and 7 on random data over
// every index kind: the specific ε-ranges come from the leaf walk over the
// index's leaves (one leaf for the linear scan) and its store, whatever the
// kind.
func TestSpecificCoreDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		n := 50 + rng.Intn(250)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{rng.Float64() * 8, rng.Float64() * 8}
		}
		eps := 0.4 + rng.Float64()*0.6
		params := Params{Eps: eps, MinPts: 3 + rng.Intn(3)}
		for _, kind := range index.Kinds() {
			t.Run(fmt.Sprintf("trial=%d/%s", trial, kind), func(t *testing.T) {
				res, err := Run(kindOf(t, kind, pts, eps), params, Options{CollectSpecificCores: true})
				if err != nil {
					t.Fatal(err)
				}
				checkDefinition6(t, pts, res)
				checkDefinition7(t, pts, res)
			})
		}
	}
}

func TestSpecificCoreCompression(t *testing.T) {
	// A dense cluster must be described by far fewer specific core points
	// than it has core points — that compression is the point of the local
	// model.
	rng := rand.New(rand.NewSource(6))
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Point{rng.NormFloat64(), rng.NormFloat64()}
	}
	params := Params{Eps: 0.5, MinPts: 5}
	for _, kind := range index.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			res, err := Run(kindOf(t, kind, pts, params.Eps), params, Options{CollectSpecificCores: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.NumClusters() < 1 {
				t.Fatal("expected at least one cluster")
			}
			totalCore := 0
			for _, c := range res.Core {
				if c {
					totalCore++
				}
			}
			totalScor := 0
			for _, s := range res.Scor {
				totalScor += len(s)
			}
			if totalScor*4 > totalCore {
				t.Fatalf("poor compression: %d specific of %d core points", totalScor, totalCore)
			}
		})
	}
}

func TestSpecificEpsAtLeastEps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 300)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 6, rng.Float64() * 6}
	}
	params := Params{Eps: 0.7, MinPts: 4}
	for _, kind := range index.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			res, err := Run(kindOf(t, kind, pts, params.Eps), params, Options{CollectSpecificCores: true})
			if err != nil {
				t.Fatal(err)
			}
			for s, e := range res.SpecificEps {
				if e < params.Eps {
					t.Fatalf("specific eps of %d is %v < Eps %v", s, e, params.Eps)
				}
				if e > 2*params.Eps {
					t.Fatalf("specific eps of %d is %v > 2*Eps %v (max dist in Def. 7 is bounded by Eps)",
						s, e, 2*params.Eps)
				}
			}
		})
	}
}

// Property: every cluster member (core and border) lies inside the specific
// ε-range of at least one of its cluster's representatives. This is the
// coverage invariant DESIGN.md derives via the triangle inequality; the
// relabeling step of DBDC depends on it.
func TestRepresentativeCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e := geom.Euclidean{}
	params := Params{Eps: 0.6, MinPts: 4}
	for trial := 0; trial < 6; trial++ {
		pts := make([]geom.Point, 200+rng.Intn(200))
		for i := range pts {
			pts[i] = geom.Point{rng.Float64() * 7, rng.Float64() * 7}
		}
		for _, kind := range index.Kinds() {
			t.Run(fmt.Sprintf("trial=%d/%s", trial, kind), func(t *testing.T) {
				res, err := Run(kindOf(t, kind, pts, params.Eps), params, Options{CollectSpecificCores: true})
				if err != nil {
					t.Fatal(err)
				}
				for i := range pts {
					id := res.Labels[i]
					if id < 0 {
						continue
					}
					covered := false
					for _, s := range res.Scor[id] {
						if e.Distance(pts[i], pts[s]) <= res.SpecificEps[s] {
							covered = true
							break
						}
					}
					if !covered {
						t.Fatalf("cluster member %d outside every representative's ε-range", i)
					}
				}
			})
		}
	}
}

func TestScorDisabledByDefault(t *testing.T) {
	pts := []geom.Point{{0, 0}, {0.1, 0}, {0.2, 0}}
	res, err := Run(linearOf(pts), Params{Eps: 0.5, MinPts: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scor != nil || res.SpecificEps != nil {
		t.Fatal("Scor collected without opt-in")
	}
}

func BenchmarkDBSCAN(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 5000)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 10, rng.Float64() * 10}
	}
	for _, kind := range index.Kinds() {
		idx, err := index.Build(kind, pts, geom.Euclidean{}, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(idx, Params{Eps: 0.2, MinPts: 5}, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
