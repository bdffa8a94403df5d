package dbscan

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// uniformPoints returns n points uniform in [0, side)^2 — denser and more
// boundary-heavy than twoBlobs, to stress the merge phase with many
// inter-chunk cluster bridges.
func uniformPoints(rng *rand.Rand, n int, side float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * side, rng.Float64() * side}
	}
	return pts
}

// TestRunParallelDifferential is the differential guarantee of RunParallel:
// across index kinds, worker counts and data shapes, the core partition is
// byte-identical to the sequential Run, noise is identical, border points
// land on an adjacent cluster, and the region-query accounting matches
// exactly.
func TestRunParallelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	blob, _ := twoBlobs(rng, 150)
	datasets := []struct {
		name   string
		pts    []geom.Point
		params Params
	}{
		{"blobs", blob, Params{Eps: 0.5, MinPts: 5}},
		{"uniform", uniformPoints(rng, 800, 10), Params{Eps: 0.35, MinPts: 4}},
		{"sparse", uniformPoints(rng, 200, 100), Params{Eps: 1, MinPts: 3}},
	}
	for _, ds := range datasets {
		for _, kind := range index.Kinds() {
			idx, err := index.Build(kind, ds.pts, geom.Euclidean{}, ds.params.Eps)
			if err != nil {
				t.Fatalf("%s/%s: build: %v", ds.name, kind, err)
			}
			seq, err := Run(idx, ds.params, Options{CollectSpecificCores: true})
			if err != nil {
				t.Fatalf("%s/%s: sequential: %v", ds.name, kind, err)
			}
			for _, workers := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", ds.name, kind, workers), func(t *testing.T) {
					par, err := RunParallel(idx, ds.params, Options{
						CollectSpecificCores: true,
						Workers:              workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					assertParallelMatches(t, idx, ds.params, seq, par)
				})
			}
		}
	}
}

// assertParallelMatches checks every documented RunParallel guarantee
// against the sequential result.
func assertParallelMatches(t *testing.T, idx index.Index, params Params, seq, par *Result) {
	t.Helper()
	if !reflect.DeepEqual(par.Core, seq.Core) {
		t.Fatal("core flags differ from sequential run")
	}
	if got, want := par.NumClusters(), seq.NumClusters(); got != want {
		t.Fatalf("NumClusters = %d, want %d", got, want)
	}
	// Exactly one region query per object plus one per selected specific
	// core point. The parallel Scor set may differ in size from the
	// sequential one, so the totals are compared against the accounting
	// identity rather than each other.
	wantQueries := len(seq.Core)
	for _, scor := range par.Scor {
		wantQueries += len(scor)
	}
	if got := par.RangeQueries; got != wantQueries {
		t.Fatalf("RangeQueries = %d, want %d (objects + specific cores)", got, wantQueries)
	}
	metric := idx.Metric()
	for i := range seq.Core {
		switch {
		case seq.Core[i]:
			// Core partition must be byte-identical, numbering included.
			if par.Labels[i] != seq.Labels[i] {
				t.Fatalf("core %d: label %d, sequential %d", i, par.Labels[i], seq.Labels[i])
			}
		case seq.Labels[i] == cluster.Noise:
			if par.Labels[i] != cluster.Noise {
				t.Fatalf("noise %d: parallel label %d", i, par.Labels[i])
			}
		default:
			// Border point: must belong to the cluster of some core neighbor
			// (the lowest-index one, per the documented tie rule).
			if par.Labels[i] < 0 {
				t.Fatalf("border %d: parallel marked noise", i)
			}
			ok := false
			for _, j := range idx.Range(idx.Point(i), params.Eps) {
				if seq.Core[j] && par.Labels[j] == par.Labels[i] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("border %d: label %d has no adjacent core", i, par.Labels[i])
			}
		}
	}
	// Specific core sets may legitimately differ in membership (selection
	// order differs) but must satisfy Definition 6 for the same partition:
	// pairwise non-coverage and complete coverage of the cluster's cores,
	// with Definition 7 ranges at least Eps.
	for id, scor := range par.Scor {
		for a := 0; a < len(scor); a++ {
			for b := a + 1; b < len(scor); b++ {
				if metric.Distance(idx.Point(scor[a]), idx.Point(scor[b])) <= params.Eps {
					t.Fatalf("cluster %d: specific cores %d and %d cover each other", id, scor[a], scor[b])
				}
			}
		}
	}
	for i := range par.Core {
		if !par.Core[i] {
			continue
		}
		covered := false
		for _, s := range par.Scor[par.Labels[i]] {
			if metric.Distance(idx.Point(s), idx.Point(i)) <= params.Eps {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("core %d not covered by any specific core of cluster %d", i, par.Labels[i])
		}
	}
	for s, eps := range par.SpecificEps {
		if eps < params.Eps {
			t.Fatalf("specific eps of %d = %v < Eps %v", s, eps, params.Eps)
		}
	}
}

// TestRunDelegatesToParallel: Options.Workers > 1 routes Run through
// RunParallel.
func TestRunDelegatesToParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := uniformPoints(rng, 400, 10)
	idx := linearOf(pts)
	params := Params{Eps: 0.4, MinPts: 4}
	viaRun, err := Run(idx, params, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunParallel(idx, params, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaRun.Labels, direct.Labels) {
		t.Fatal("Run(Workers=4) differs from RunParallel")
	}
	if viaRun.RangeQueries != direct.RangeQueries {
		t.Fatal("RangeQueries differ between Run(Workers=4) and RunParallel")
	}
}

// TestRunParallelDeterministic: the parallel result must not depend on the
// worker count or scheduling — repeated runs agree bit-for-bit.
func TestRunParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := uniformPoints(rng, 600, 8)
	idx := linearOf(pts)
	params := Params{Eps: 0.3, MinPts: 4}
	var ref *Result
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		res, err := RunParallel(idx, params, Options{CollectSpecificCores: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Labels, ref.Labels) {
			t.Fatalf("workers=%d: labels differ from workers=1", workers)
		}
		if !reflect.DeepEqual(res.Scor, ref.Scor) {
			t.Fatalf("workers=%d: specific cores differ from workers=1", workers)
		}
		if !reflect.DeepEqual(res.SpecificEps, ref.SpecificEps) {
			t.Fatalf("workers=%d: specific eps differ from workers=1", workers)
		}
	}
}

// TestRunParallelEdgeCases covers empty and tiny inputs and the
// worker-clamping paths.
func TestRunParallelEdgeCases(t *testing.T) {
	params := Params{Eps: 1, MinPts: 2}
	empty, err := RunParallel(linearOf(nil), params, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if empty.NumClusters() != 0 || empty.RangeQueries != 0 {
		t.Fatal("empty input must produce an empty result")
	}
	one, err := RunParallel(linearOf([]geom.Point{{0, 0}}), params, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if one.Labels[0] != cluster.Noise {
		t.Fatalf("single point below MinPts must be noise, got %v", one.Labels[0])
	}
	if _, err := RunParallel(linearOf(nil), Params{Eps: -1, MinPts: 1}, Options{}); err == nil {
		t.Fatal("invalid params must be rejected")
	}
}
