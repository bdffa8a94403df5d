package dbscan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// shardWorkerCounts are the worker counts the shard-path suites sweep:
// serial, small, and whatever the host offers.
func shardWorkerCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// storeFrom builds a flat store out of a point slice for the store-backed
// index constructors (the shard path only engages on store-backed indexes).
func storeFrom(t *testing.T, pts []geom.Point) *geom.Store {
	t.Helper()
	st, err := geom.FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRunParallelShardDifferential extends TestRunParallelDifferential to
// the spatial shard path: over store-backed indexes of every kind, worker
// counts {1, 4, GOMAXPROCS} and data shapes chosen to stress the grid
// partitioner — duplicates piling into single cells, points exactly on cell
// boundaries, 1-D and 8-D strides — the shard-parallel result upholds every
// documented RunParallel guarantee against the sequential Run, and the runs
// really take the shard path (Shards ≥ 2).
func TestRunParallelShardDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	blob, _ := twoBlobs(rng, 150)

	// Duplicate-heavy: 100 distinct locations × 6 exact copies each, so
	// whole stacks of identical rows land in one cell and on its halo.
	dup := make([]geom.Point, 0, 600)
	for i := 0; i < 100; i++ {
		p := geom.Point{rng.Float64() * 10, rng.Float64() * 10}
		for c := 0; c < 6; c++ {
			dup = append(dup, geom.Point{p[0], p[1]})
		}
	}

	// Exact-boundary lattice: every coordinate a multiple of the spacing,
	// with ε equal to the spacing, so neighbors sit at exactly distance ε
	// and rows land exactly on candidate cell edges.
	var lattice []geom.Point
	for x := 0; x < 25; x++ {
		for y := 0; y < 25; y++ {
			lattice = append(lattice, geom.Point{float64(x) * 0.25, float64(y) * 0.25})
		}
	}

	// 1-D: clusters on a line, stride 1.
	line := make([]geom.Point, 512)
	for i := range line {
		line[i] = geom.Point{float64(i/64)*10 + rng.Float64()}
	}

	// 8-D: uniform in the unit cube, stride 8.
	high := make([]geom.Point, 400)
	for i := range high {
		p := make(geom.Point, 8)
		for d := range p {
			p[d] = rng.Float64()
		}
		high[i] = p
	}

	datasets := []struct {
		name   string
		pts    []geom.Point
		params Params
	}{
		{"blobs", blob, Params{Eps: 0.5, MinPts: 5}},
		{"uniform", uniformPoints(rng, 800, 10), Params{Eps: 0.35, MinPts: 4}},
		{"duplicates", dup, Params{Eps: 0.5, MinPts: 4}},
		{"boundary-lattice", lattice, Params{Eps: 0.25, MinPts: 3}},
		{"line-1d", line, Params{Eps: 0.5, MinPts: 3}},
		{"cube-8d", high, Params{Eps: 0.45, MinPts: 2}},
	}
	for _, ds := range datasets {
		st := storeFrom(t, ds.pts)
		for _, kind := range index.Kinds() {
			idx, err := index.BuildStore(kind, st, geom.Euclidean{}, ds.params.Eps)
			if err != nil {
				t.Fatalf("%s/%s: build: %v", ds.name, kind, err)
			}
			seq, err := Run(idx, ds.params, Options{CollectSpecificCores: true})
			if err != nil {
				t.Fatalf("%s/%s: sequential: %v", ds.name, kind, err)
			}
			for _, workers := range shardWorkerCounts() {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", ds.name, kind, workers), func(t *testing.T) {
					par, err := RunParallel(idx, ds.params, Options{
						CollectSpecificCores: true,
						Workers:              workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					if par.Shards < 2 {
						t.Fatalf("Shards = %d, want the spatial shard path (≥ 2)", par.Shards)
					}
					assertParallelMatches(t, idx, ds.params, seq, par)
				})
			}
		}
	}
}

// TestRunParallelShardFallback pins the degenerate geometries that must
// bypass spatial sharding: NaN and ±Inf coordinates, ε covering the whole
// bounding box, all points identical (one cell), fewer than 128 objects,
// and an index that exposes no store. Each falls back to the chunked path
// (Shards == 0) and the result still matches the sequential Run on the same
// index.
func TestRunParallelShardFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(41))

	nan := uniformPoints(rng, 200, 10)
	nan[17] = geom.Point{math.NaN(), 3}
	inf := uniformPoints(rng, 200, 10)
	inf[3] = geom.Point{math.Inf(1), 1}
	inf[150] = geom.Point{2, math.Inf(-1)}
	same := make([]geom.Point, 200)
	for i := range same {
		same[i] = geom.Point{1.5, -2.5}
	}

	cases := []struct {
		name   string
		pts    []geom.Point
		params Params
		// noStore hides the store behind the bare Index interface — geometry
		// the shard path would take, answered chunked.
		noStore bool
	}{
		{"nan-coord", nan, Params{Eps: 0.5, MinPts: 4}, false},
		{"inf-coord", inf, Params{Eps: 0.5, MinPts: 4}, false},
		{"eps-covers-bbox", uniformPoints(rng, 300, 1), Params{Eps: 5, MinPts: 4}, false},
		{"all-identical", same, Params{Eps: 0.5, MinPts: 4}, false},
		{"sharding-off", uniformPoints(rng, 800, 10), Params{Eps: 0.35, MinPts: 4}, true},
		{"tiny", uniformPoints(rng, 60, 10), Params{Eps: 0.5, MinPts: 3}, false},
	}
	for _, tc := range cases {
		// The non-finite datasets stay on the kd-tree and linear kinds: the
		// indexes are only specified for finite data, but whatever a kind
		// does with NaN it must do identically on both paths, and these two
		// kinds degrade to plain scans.
		kinds := index.Kinds()
		if tc.name == "nan-coord" || tc.name == "inf-coord" {
			kinds = []index.Kind{index.KindLinear, index.KindKDTree}
		}
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/%s", tc.name, kind), func(t *testing.T) {
				st := storeFrom(t, tc.pts)
				idx, err := index.BuildStore(kind, st, geom.Euclidean{}, tc.params.Eps)
				if err != nil {
					t.Fatal(err)
				}
				seq, err := Run(idx, tc.params, Options{CollectSpecificCores: true})
				if err != nil {
					t.Fatal(err)
				}
				parIdx := idx
				if tc.noStore {
					parIdx = struct{ index.Index }{idx}
				}
				par, err := RunParallel(parIdx, tc.params, Options{CollectSpecificCores: true, Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				if par.Shards != 0 {
					t.Fatalf("Shards = %d, want chunked fallback (0)", par.Shards)
				}
				assertParallelMatches(t, idx, tc.params, seq, par)
			})
		}
	}
}

// TestRunParallelShardDeterministic checks that the shard path is a pure
// function of the input: every worker count yields bit-identical labels,
// core flags, specific cores and query counts, even though the cell-to-
// worker assignment (and the shard count itself, which scales with the
// worker count) varies run to run.
func TestRunParallelShardDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := uniformPoints(rng, 1000, 10)
	params := Params{Eps: 0.4, MinPts: 4}
	st := storeFrom(t, pts)
	idx, err := index.BuildStore(index.KindGrid, st, geom.Euclidean{}, params.Eps)
	if err != nil {
		t.Fatal(err)
	}
	var want *Result
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		got, err := RunParallel(idx, params, Options{CollectSpecificCores: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Shards < 2 {
			t.Fatalf("workers=%d: Shards = %d, want the spatial shard path", workers, got.Shards)
		}
		got.Shards = 0 // the shard count scales with workers; everything else may not
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: result differs from workers=1", workers)
		}
	}
}
