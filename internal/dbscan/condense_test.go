package dbscan

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// TestCondenseParallelDifferential holds the per-cluster condensation to
// referenceRun at every worker count, one — the calling goroutine alone —
// among them: the same specific core sets in the same selection order, the
// same specific ε-ranges, the same region-query accounting, across index
// kinds (the R*-tree also built for other radii than it is queried at) and
// data shapes, many small clusters and none among them (run under -race in
// CI, this doubles as the phase's race guard).
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
		for _, b := range differentialBuilds() {
			idx, err := b.build(ds.pts, ds.params.Eps)
			if err != nil {
				t.Fatalf("%s/%s: build: %v", ds.name, b, err)
			}
			want := referenceRun(idx, ds.params)
			for _, workers := range []int{1, 2, 3, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", ds.name, b, workers), func(t *testing.T) {
					got, err := Run(idx, ds.params, Options{CollectSpecificCores: true, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatal(describeDifference(got, want))
					}
				})
			}
		}
	}
}

// TestCondenseOneWorkerContract asserts the stable contract of the
// condensation on one worker, the calling goroutine: every cluster has at
// least one specific core and every specific ε is ≥ Eps (Definition 7 lower
// bound).
func TestCondenseOneWorkerContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := uniformPoints(rng, 400, 10)
	params := Params{Eps: 0.4, MinPts: 4}
	for _, kind := range index.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			idx, err := index.Build(kind, pts, geom.Euclidean{}, params.Eps)
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
		})
	}
}
