package dbscan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
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

// parallelWorkerCounts are the worker counts the differential suite sweeps:
// serial, small, oversubscribed, and whatever the host offers.
func parallelWorkerCounts() []int {
	counts := []int{1, 2, 4, 8}
	p := runtime.GOMAXPROCS(0)
	for _, c := range counts {
		if c == p {
			return counts
		}
	}
	return append(counts, p)
}

// TestRunParallelDifferential is the differential guarantee of RunParallel:
// across index kinds, worker counts and data shapes, the core partition is
// byte-identical to the sequential Run, noise is identical, border points
// land on an adjacent cluster, and the region-query accounting matches
// exactly. The shapes include the ones a partitioner would trip over —
// duplicates, neighbors at exactly ε, 1-D and 8-D strides, non-finite
// coordinates, ε covering the whole bounding box, fewer objects than a
// worker pool wants, an index that exposes no store — because RunParallel
// has no special case for any of them.
func TestRunParallelDifferential(t *testing.T) {
	type dataset struct {
		name   string
		pts    []geom.Point
		params Params
		kinds  []index.Kind // nil = every kind
		// bare hands RunParallel the index behind the plain Index interface:
		// no store, no by-id fast path.
		bare bool
	}

	rng := rand.New(rand.NewSource(11))
	blob, _ := twoBlobs(rng, 150)
	datasets := []dataset{
		{name: "blobs", pts: blob, params: Params{Eps: 0.5, MinPts: 5}},
		{name: "uniform", pts: uniformPoints(rng, 800, 10), params: Params{Eps: 0.35, MinPts: 4}},
		{name: "sparse", pts: uniformPoints(rng, 200, 100), params: Params{Eps: 1, MinPts: 3}},
	}

	// The shapes a spatial partitioner would trip over (seed and draw order
	// of the suite that pinned one, so the inputs are the ones it saw).
	rng = rand.New(rand.NewSource(23))
	blob2, _ := twoBlobs(rng, 150)

	// Duplicate-heavy: 100 distinct locations × 6 exact copies each.
	dup := make([]geom.Point, 0, 600)
	for i := 0; i < 100; i++ {
		p := geom.Point{rng.Float64() * 10, rng.Float64() * 10}
		for c := 0; c < 6; c++ {
			dup = append(dup, geom.Point{p[0], p[1]})
		}
	}

	// Exact-boundary lattice: every coordinate a multiple of the spacing,
	// with ε equal to the spacing, so neighbors sit at exactly distance ε.
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
	datasets = append(datasets,
		dataset{name: "blobs-2", pts: blob2, params: Params{Eps: 0.5, MinPts: 5}},
		dataset{name: "uniform-2", pts: uniformPoints(rng, 800, 10), params: Params{Eps: 0.35, MinPts: 4}},
		dataset{name: "duplicates", pts: dup, params: Params{Eps: 0.5, MinPts: 4}},
		dataset{name: "boundary-lattice", pts: lattice, params: Params{Eps: 0.25, MinPts: 3}},
		dataset{name: "line-1d", pts: line, params: Params{Eps: 0.5, MinPts: 3}},
		dataset{name: "cube-8d", pts: high, params: Params{Eps: 0.45, MinPts: 2}},
	)

	// Degenerate geometry (again the seed and draw order of the suite these
	// inputs come from). The non-finite datasets stay on the kd-tree and
	// linear kinds: the indexes are only specified for finite data, but
	// whatever a kind does with NaN it must do identically at every worker
	// count, and these two kinds degrade to plain scans. (A kd-tree built
	// over a NaN coordinate can return asymmetric neighborhoods on other
	// draws, which breaks sequential and parallel DBSCAN alike; on this
	// input it does not.)
	rng = rand.New(rand.NewSource(41))
	nan := uniformPoints(rng, 200, 10)
	nan[17] = geom.Point{math.NaN(), 3}
	inf := uniformPoints(rng, 200, 10)
	inf[3] = geom.Point{math.Inf(1), 1}
	inf[150] = geom.Point{2, math.Inf(-1)}
	same := make([]geom.Point, 200)
	for i := range same {
		same[i] = geom.Point{1.5, -2.5}
	}
	scanKinds := []index.Kind{index.KindLinear, index.KindKDTree}
	datasets = append(datasets,
		dataset{name: "nan-coord", pts: nan, params: Params{Eps: 0.5, MinPts: 4}, kinds: scanKinds},
		dataset{name: "inf-coord", pts: inf, params: Params{Eps: 0.5, MinPts: 4}, kinds: scanKinds},
		dataset{name: "eps-covers-bbox", pts: uniformPoints(rng, 300, 1), params: Params{Eps: 5, MinPts: 4}},
		dataset{name: "all-identical", pts: same, params: Params{Eps: 0.5, MinPts: 4}},
		dataset{name: "bare-index", pts: uniformPoints(rng, 800, 10), params: Params{Eps: 0.35, MinPts: 4}, bare: true},
		dataset{name: "tiny", pts: uniformPoints(rng, 60, 10), params: Params{Eps: 0.5, MinPts: 3}},
	)
	for _, ds := range datasets {
		kinds := ds.kinds
		if kinds == nil {
			kinds = index.Kinds()
		}
		for _, kind := range kinds {
			idx, err := index.Build(kind, ds.pts, geom.Euclidean{}, ds.params.Eps)
			if err != nil {
				t.Fatalf("%s/%s: build: %v", ds.name, kind, err)
			}
			seq, err := Run(idx, ds.params, Options{CollectSpecificCores: true})
			if err != nil {
				t.Fatalf("%s/%s: sequential: %v", ds.name, kind, err)
			}
			parIdx := idx
			if ds.bare {
				parIdx = struct{ index.Index }{idx}
			}
			for _, workers := range parallelWorkerCounts() {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", ds.name, kind, workers), func(t *testing.T) {
					par, err := RunParallel(parIdx, ds.params, Options{
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

// TestRunParallelDeterministic: the parallel result is a pure function of
// the input — every worker count, whatever the scheduling, yields a Result
// equal in every field.
func TestRunParallelDeterministic(t *testing.T) {
	cases := []struct {
		kind   index.Kind
		seed   int64
		n      int
		side   float64
		params Params
	}{
		{index.KindLinear, 9, 600, 8, Params{Eps: 0.3, MinPts: 4}},
		{index.KindGrid, 7, 1000, 10, Params{Eps: 0.4, MinPts: 4}},
	}
	for _, tc := range cases {
		pts := uniformPoints(rand.New(rand.NewSource(tc.seed)), tc.n, tc.side)
		idx, err := index.Build(tc.kind, pts, geom.Euclidean{}, tc.params.Eps)
		if err != nil {
			t.Fatal(err)
		}
		var ref *Result
		for _, workers := range []int{1, 2, 3, 4, 7, 16} {
			res, err := RunParallel(idx, tc.params, Options{CollectSpecificCores: true, Workers: workers})
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", tc.kind, workers, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("%s/workers=%d: result differs from workers=1", tc.kind, workers)
			}
		}
	}
}

// countingIndex counts the range queries that reach a store-backed index.
// It forwards exactly the three interfaces a caller of RunParallel can see
// through — Index, IDRangeAppender and StoreBacked — so the wrapped index
// still presents its store.
type countingIndex struct {
	index.Index
	queries atomic.Int64
}

func (c *countingIndex) Range(q geom.Point, eps float64) []int {
	c.queries.Add(1)
	return c.Index.Range(q, eps)
}

func (c *countingIndex) RangeAppendID(i int, eps float64, buf []int) []int {
	c.queries.Add(1)
	return c.Index.(index.IDRangeAppender).RangeAppendID(i, eps, buf)
}

func (c *countingIndex) Store() *geom.Store { return index.StoreOf(c.Index) }

// TestParallelHonoursIndexKind pins that the index a caller hands to
// RunParallel is the index that answers: every counted region query —
// one per object plus one per specific core — arrives at the caller's
// index, whatever its kind and however many workers run.
func TestParallelHonoursIndexKind(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := uniformPoints(rng, 800, 10)
	params := Params{Eps: 0.35, MinPts: 4}
	for _, kind := range index.Kinds() {
		inner, err := index.Build(kind, pts, geom.Euclidean{}, params.Eps)
		if err != nil {
			t.Fatalf("%s: build: %v", kind, err)
		}
		if index.StoreOf(inner) == nil {
			t.Fatalf("%s: Euclidean index exposes no store", kind)
		}
		idx := &countingIndex{Index: inner}
		res, err := RunParallel(idx, params, Options{CollectSpecificCores: true, Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got := int(idx.queries.Load()); got != res.RangeQueries {
			t.Fatalf("%s: the caller's index answered %d queries, Result.RangeQueries = %d", kind, got, res.RangeQueries)
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
