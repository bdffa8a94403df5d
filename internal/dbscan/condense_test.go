package dbscan

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// TestCondenseParallelDifferential proves the per-cluster parallel
// condensation is byte-identical to the sequential fold: same specific
// core sets in the same selection order, same specific ε-ranges, same
// region-query accounting — across index kinds, data shapes and worker
// counts (run under -race in CI, this doubles as the phase's race guard).
func TestCondenseParallelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	blob, _ := twoBlobs(rng, 150)
	datasets := []struct {
		name   string
		pts    []geom.Point
		params Params
	}{
		{"blobs", blob, Params{Eps: 0.5, MinPts: 5}},
		{"uniform", uniformPoints(rng, 600, 10), Params{Eps: 0.35, MinPts: 4}},
		{"manyclusters", uniformPoints(rng, 500, 60), Params{Eps: 1.4, MinPts: 3}},
		{"allnoise", uniformPoints(rng, 100, 1000), Params{Eps: 1, MinPts: 4}},
	}
	for _, ds := range datasets {
		for _, kind := range index.Kinds() {
			idx, err := index.Build(kind, ds.pts, geom.Euclidean{}, ds.params.Eps)
			if err != nil {
				t.Fatalf("%s/%s: build: %v", ds.name, kind, err)
			}
			// workers=1 takes the sequential condensation path — the
			// reference the parallel fold must reproduce exactly.
			ref, err := Run(idx, ds.params, Options{CollectSpecificCores: true, Workers: 1})
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", ds.name, kind, err)
			}
			for _, workers := range []int{2, 3, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", ds.name, kind, workers), func(t *testing.T) {
					par, err := Run(idx, ds.params, Options{CollectSpecificCores: true, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if len(par.Scor) != len(ref.Scor) {
						t.Fatalf("parallel condensation found %d clusters with specific cores, reference %d",
							len(par.Scor), len(ref.Scor))
					}
					for id, want := range ref.Scor {
						got, ok := par.Scor[id]
						if !ok {
							t.Fatalf("cluster %v missing from parallel Scor", id)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("cluster %v: specific cores %v != reference %v (order included)", id, got, want)
						}
					}
					if !reflect.DeepEqual(par.SpecificEps, ref.SpecificEps) {
						t.Fatalf("specific ε-ranges diverge:\n got %v\nwant %v", par.SpecificEps, ref.SpecificEps)
					}
					if par.RangeQueries != ref.RangeQueries {
						t.Fatalf("range-query accounting %d != reference %d", par.RangeQueries, ref.RangeQueries)
					}
					// And the phase input itself was identical (labels/cores
					// are guarded elsewhere, but a diverged input would make
					// the comparison above meaningless).
					if !reflect.DeepEqual(par.Labels, ref.Labels) {
						t.Fatal("labelings diverge between runs")
					}
				})
			}
		}
	}
}

// TestCondenseSequentialUnchanged asserts the stable contract of the
// sequential condensation path (workers=1): every cluster has at least one
// specific core and every specific ε is ≥ Eps (Definition 7 lower bound).
func TestCondenseSequentialUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := uniformPoints(rng, 400, 10)
	params := Params{Eps: 0.4, MinPts: 4}
	idx, err := index.Build(index.KindKDTree, pts, geom.Euclidean{}, params.Eps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(idx, params, Options{CollectSpecificCores: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() == 0 {
		t.Skip("degenerate dataset: no clusters")
	}
	if len(res.Scor) != res.NumClusters() {
		t.Fatalf("%d clusters but %d entries in Scor", res.NumClusters(), len(res.Scor))
	}
	for id, scor := range res.Scor {
		if len(scor) == 0 {
			t.Fatalf("cluster %v has no specific core points", id)
		}
		for _, s := range scor {
			eps, ok := res.SpecificEps[s]
			if !ok {
				t.Fatalf("specific core %d has no ε-range", s)
			}
			if eps < params.Eps {
				t.Fatalf("specific core %d: ε_s = %g < Eps = %g violates Definition 7", s, eps, params.Eps)
			}
		}
	}
}
