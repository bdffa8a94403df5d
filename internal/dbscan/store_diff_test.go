// Package dbscan_test holds the index-kind differentials: it lives in an
// external test package so it can pull in the data generators (package data
// imports dbscan for Params, which would cycle from an internal test).
package dbscan_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// diffPoints builds a modest mixed data set: three blobs, a ring, and
// background noise — enough structure for clusters, border points, and
// noise to all appear.
func diffPoints(t *testing.T) []geom.Point {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	st := geom.NewStore(2, 0)
	data.AppendBlob(st, rng, geom.Point{10, 10}, 1.0, 220)
	data.AppendBlob(st, rng, geom.Point{30, 12}, 1.3, 220)
	data.AppendBlob(st, rng, geom.Point{20, 32}, 0.8, 220)
	data.AppendRing(st, rng, 20, 32, 6, 0.3, 180)
	data.AppendUniform(st, rng, geom.NewRect(geom.Point{0, 0}, geom.Point{45, 45}), 120)
	return st.Views()
}

// clonePoints deep-copies so Build copies from genuinely independent
// per-point allocations, not store views.
func clonePoints(pts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Clone()
	}
	return out
}

// TestStorePipelineDifferential pins the one-hot-path invariant end to end:
// for every index kind, at one worker and at four, an index built from a
// point slice clusters exactly like one built over the equivalent store —
// identical labels, region-query count, specific cores and specific ε — and
// every kind's whole result equals the linear scan's over the store.
func TestStorePipelineDifferential(t *testing.T) {
	pts := diffPoints(t)
	params := dbscan.Params{Eps: 1.1, MinPts: 5}
	st, err := geom.FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opts := dbscan.Options{CollectSpecificCores: true, Workers: workers}
		var linear *dbscan.Result
		for _, kind := range index.Kinds() {
			builtIdx, err := index.Build(kind, clonePoints(pts), geom.Euclidean{}, params.Eps)
			if err != nil {
				t.Fatalf("%s: Build: %v", kind, err)
			}
			want, err := dbscan.Run(builtIdx, params, opts)
			if err != nil {
				t.Fatalf("%s/workers=%d: Build run: %v", kind, workers, err)
			}
			storeIdx, err := index.BuildStore(kind, st, geom.Euclidean{}, params.Eps)
			if err != nil {
				t.Fatalf("%s: BuildStore: %v", kind, err)
			}
			got, err := dbscan.Run(storeIdx, params, opts)
			if err != nil {
				t.Fatalf("%s/workers=%d: store run: %v", kind, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/workers=%d: BuildStore result differs from Build result", kind, workers)
			}
			if kind == index.KindLinear {
				linear = got
				continue
			}
			if !reflect.DeepEqual(got, linear) {
				t.Errorf("%s/workers=%d: result differs from the linear scan's", kind, workers)
			}
		}
	}
}

// resultHash folds everything a clustering publishes — labels, core flags,
// specific cores in selection order with their specific ε bits, and the
// region-query count — into one short digest.
func resultHash(res *dbscan.Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, l := range res.Labels {
		put(uint64(int64(l)))
	}
	for _, c := range res.Core {
		if c {
			put(1)
		} else {
			put(0)
		}
	}
	ids := make([]int, 0, len(res.Scor))
	for id := range res.Scor {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		put(uint64(id))
		for _, s := range res.Scor[cluster.ID(id)] {
			put(uint64(s))
			put(math.Float64bits(res.SpecificEps[s]))
		}
	}
	put(uint64(len(res.SpecificEps)))
	put(uint64(res.RangeQueries))
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestClusteringIdentity holds every kind × worker count to the digests
// recorded at commit e942b15 — the last one that still carried a
// slice-Euclidean path, where slice- and store-built indexes produced these
// same digests — over data sets A, B and C (seed 1). A result is a pure
// function of the input, so there is one digest per data set. (Up to PR 22
// these three were the "parallel" entries next to one digest per kind for a
// sequential expansion that no longer exists.)
func TestClusteringIdentity(t *testing.T) {
	want := map[string]string{"A": "a5d1643bf8ff9b40", "B": "777d7330c148dee1", "C": "41d570200e77ab72"}
	for _, ds := range data.ABC(1) {
		for _, kind := range index.Kinds() {
			idx, err := index.Build(kind, ds.Points, geom.Euclidean{}, ds.Params.Eps)
			if err != nil {
				t.Fatalf("%s/%s: %v", ds.Name, kind, err)
			}
			for _, workers := range []int{1, 4} {
				res, err := dbscan.Run(idx, ds.Params, dbscan.Options{CollectSpecificCores: true, Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s/workers=%d: %v", ds.Name, kind, workers, err)
				}
				if got := resultHash(res); got != want[ds.Name] {
					t.Errorf("%s/%s/workers=%d: digest %s, want %s", ds.Name, kind, workers, got, want[ds.Name])
				}
			}
		}
	}
}
