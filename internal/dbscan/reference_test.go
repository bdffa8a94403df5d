package dbscan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
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

// indexBuild is one index a differential suite runs DBSCAN over: a kind,
// built for hint times the radius it is queried at.
type indexBuild struct {
	kind index.Kind
	hint float64
}

func (b indexBuild) String() string {
	if b.hint == 1 {
		return string(b.kind)
	}
	return fmt.Sprintf("%s-hint%gx", b.kind, b.hint)
}

// build builds b over pts for queries at radius eps.
func (b indexBuild) build(pts []geom.Point, eps float64) (index.Index, error) {
	return index.Build(b.kind, pts, geom.Euclidean{}, b.hint*eps)
}

// differentialBuilds lists every kind built for the radius it is queried at,
// and the R*-tree built for half and for four times that radius. The R*-tree
// is the one kind that reads the radius it is built for (its leaf table):
// built for another one, NearLeaves descends from the root instead of
// reading the table, as on a site clustered at another ε than its index was
// built for. Neither may change a result.
func differentialBuilds() []indexBuild {
	var builds []indexBuild
	for _, kind := range index.Kinds() {
		builds = append(builds, indexBuild{kind, 1})
	}
	return append(builds, indexBuild{index.KindRStar, 0.5}, indexBuild{index.KindRStar, 4})
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

// referenceRun is the package comment's rule computed the slow way, with no
// index, no expansion and no marks: all n² distances once, core flags by
// counting, the components of the core graph by a search started at each
// unlabelled core object in ascending id, a non-core object to the cluster of
// its lowest-id core neighbour, Definition 6 by scanning — pair by pair — the
// specific core points already picked for the cluster, Definition 7 as a
// maximum over the core neighbours. Distances are the store kernel's, in
// squared space.
func referenceRun(idx index.Index, params Params) *Result {
	n := idx.Len()
	st, eps := idx.Store(), params.Eps
	// dist reports the squared distance of objects a and b and whether b lies
	// in N_Eps(a).
	dist := func(a, b int) (float64, bool) {
		d2 := st.DistanceSq(a, b)
		return d2, d2 <= eps*eps
	}
	res := &Result{
		Params:      params,
		Labels:      make(cluster.Labeling, n),
		Core:        make([]bool, n),
		Scor:        make(map[cluster.ID][]int),
		SpecificEps: make(map[int]float64),
	}
	nbrs := make([][]int, n) // ascending
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if _, in := dist(a, b); in {
				nbrs[a] = append(nbrs[a], b)
			}
		}
		res.Core[a] = len(nbrs[a]) >= params.MinPts
		res.Labels[a] = cluster.Noise
	}
	var next cluster.ID
	for i := 0; i < n; i++ {
		if !res.Core[i] || res.Labels[i] != cluster.Noise {
			continue
		}
		res.Labels[i] = next
		for queue := []int{i}; len(queue) > 0; queue = queue[1:] {
			for _, q := range nbrs[queue[0]] {
				if res.Core[q] && res.Labels[q] == cluster.Noise {
					res.Labels[q] = next
					queue = append(queue, q)
				}
			}
		}
		next++
	}
	for i := 0; i < n; i++ {
		if res.Core[i] {
			continue
		}
		for _, q := range nbrs[i] {
			if res.Core[q] {
				res.Labels[i] = res.Labels[q]
				break
			}
		}
	}
	for i := 0; i < n; i++ {
		if !res.Core[i] {
			continue
		}
		id := res.Labels[i]
		covered := false
		for _, s := range res.Scor[id] {
			if _, in := dist(s, i); in {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		res.Scor[id] = append(res.Scor[id], i)
		var max float64
		for _, c := range nbrs[i] {
			if d, _ := dist(i, c); c != i && res.Core[c] && d > max {
				max = d
			}
		}
		res.SpecificEps[i] = eps + math.Sqrt(max)
	}
	res.RangeQueries = n + len(res.SpecificEps)
	return res
}

// TestRunParallelDifferential holds Run to referenceRun — the whole Result,
// field for field — across index kinds (the R*-tree also built for other
// radii than it is queried at, differentialBuilds), worker counts and data
// shapes. The shapes include heavy noise and the ones a partitioner would
// trip over — duplicates, neighbors at exactly ε, 1-D and 8-D strides, ε
// covering the whole bounding box, fewer objects than a worker pool wants, an
// index that offers no leaves — because Run has no special case for any of
// them. Non-finite coordinates never reach Run: their rows hold every kind to
// refusing them at build. (The name predates the single body: it is the name
// the test floor knows the rows by.)
func TestRunParallelDifferential(t *testing.T) {
	type dataset struct {
		name   string
		pts    []geom.Point
		params Params
		// bare hands Run the index behind the plain Index interface: no
		// leaves, so Run takes it for one leaf.
		bare bool
		// rejectedRow, when positive, is the first row of a dataset every
		// kind must refuse at build, with an error naming that row.
		rejectedRow int
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
	// Ids dealt round-robin along a chain: 800 objects strung out left to
	// right, a step short of Eps apart with a gap after every hundredth, the
	// k-th of them under id (k mod 8)·100 + k/8. Each chunk of a 2-, 4- or
	// 8-worker run owns its share of every R*-tree leaf, every leaf holds ids
	// beyond every chunk but the last — the leaves a chunk must never count as
	// exhausted — and a chain stays one cluster only if no link between two
	// chunks is lost. A source of its own: the rows below keep their draws.
	chainRng := rand.New(rand.NewSource(29))
	interleaved := make([]geom.Point, 800)
	for k, x := 0, 0.0; k < len(interleaved); k++ {
		x += 0.2 + 0.1*chainRng.Float64()
		if k%100 == 0 {
			x += 1
		}
		interleaved[k%8*100+k/8] = geom.Point{x, 0.05 * chainRng.Float64()}
	}
	// Data set B's shape at a quarter of its size: five loose blobs under 40%
	// uniform noise, so that core, border and noise objects all abound. A
	// source of its own, like the chain's.
	noisyRng := rand.New(rand.NewSource(31))
	noisy := make([]geom.Point, 0, 1000)
	centres := []geom.Point{{12, 12}, {45, 15}, {30, 45}, {12, 48}, {50, 50}}
	for i := 0; i < 600; i++ {
		c := centres[i%len(centres)]
		noisy = append(noisy, geom.Point{c[0] + noisyRng.NormFloat64()*1.8, c[1] + noisyRng.NormFloat64()*1.8})
	}
	noisy = append(noisy, uniformPoints(noisyRng, 400, 60)...)
	datasets = append(datasets,
		dataset{name: "noisy-40pct", pts: noisy, params: Params{Eps: 1, MinPts: 8}},
		dataset{name: "interleaved-chunks", pts: interleaved, params: Params{Eps: 0.35, MinPts: 2}},
		dataset{name: "blobs-2", pts: blob2, params: Params{Eps: 0.5, MinPts: 5}},
		dataset{name: "uniform-2", pts: uniformPoints(rng, 800, 10), params: Params{Eps: 0.35, MinPts: 4}},
		dataset{name: "duplicates", pts: dup, params: Params{Eps: 0.5, MinPts: 4}},
		dataset{name: "boundary-lattice", pts: lattice, params: Params{Eps: 0.25, MinPts: 3}},
		dataset{name: "line-1d", pts: line, params: Params{Eps: 0.5, MinPts: 3}},
		dataset{name: "cube-8d", pts: high, params: Params{Eps: 0.45, MinPts: 2}},
	)

	// Degenerate geometry (again the seed and draw order of the suite these
	// inputs come from). The indexes are only specified for finite data, so
	// the non-finite datasets are rows of another kind: every index kind
	// refuses them at build, naming the row.
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
	datasets = append(datasets,
		dataset{name: "nan-coord", pts: nan, params: Params{Eps: 0.5, MinPts: 4}, rejectedRow: 17},
		dataset{name: "inf-coord", pts: inf, params: Params{Eps: 0.5, MinPts: 4}, rejectedRow: 3},
		dataset{name: "eps-covers-bbox", pts: uniformPoints(rng, 300, 1), params: Params{Eps: 5, MinPts: 4}},
		dataset{name: "all-identical", pts: same, params: Params{Eps: 0.5, MinPts: 4}},
		dataset{name: "bare-index", pts: uniformPoints(rng, 800, 10), params: Params{Eps: 0.35, MinPts: 4}, bare: true},
		dataset{name: "tiny", pts: uniformPoints(rng, 60, 10), params: Params{Eps: 0.5, MinPts: 3}},
	)
	for _, ds := range datasets {
		for _, b := range differentialBuilds() {
			idx, err := b.build(ds.pts, ds.params.Eps)
			if ds.rejectedRow > 0 {
				t.Run(fmt.Sprintf("%s/%s", ds.name, b), func(t *testing.T) {
					if row := fmt.Sprintf("row %d", ds.rejectedRow); err == nil || !strings.Contains(err.Error(), row) {
						t.Fatalf("build: err = %v, want a refusal naming %s", err, row)
					}
				})
				continue
			}
			if err != nil {
				t.Fatalf("%s/%s: build: %v", ds.name, b, err)
			}
			if ds.bare {
				idx = struct{ index.Index }{idx}
			}
			want := referenceRun(idx, ds.params)
			for _, workers := range parallelWorkerCounts() {
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

// describeDifference names the first field in which two results differ.
func describeDifference(got, want *Result) string {
	for i := range want.Core {
		if got.Core[i] != want.Core[i] {
			return fmt.Sprintf("object %d: core %v, reference %v", i, got.Core[i], want.Core[i])
		}
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			return fmt.Sprintf("object %d (core %v): label %d, reference %d", i, want.Core[i], got.Labels[i], want.Labels[i])
		}
	}
	if !reflect.DeepEqual(got.Scor, want.Scor) {
		return fmt.Sprintf("Scor %v, reference %v", got.Scor, want.Scor)
	}
	if !reflect.DeepEqual(got.SpecificEps, want.SpecificEps) {
		return fmt.Sprintf("SpecificEps %v, reference %v", got.SpecificEps, want.SpecificEps)
	}
	return fmt.Sprintf("RangeQueries %d, reference %d", got.RangeQueries, want.RangeQueries)
}

// TestRunMakesNoRegionQuery: DBSCAN finds every neighbourhood by walking the
// leaves — an index.Index offers no region query to make, so the compiler
// holds the package to it — and Run with CollectSpecificCores, at every
// worker count, and FromCores over its core flags and labels return the
// reference's Result over the packed tree, whatever radius it was built for.
// RangeQueries counts the paper's cost all the same: n + |Scor| for Run,
// borders + |Scor| for FromCores.
func TestRunMakesNoRegionQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := uniformPoints(rng, 800, 10)
	params := Params{Eps: 0.35, MinPts: 4}
	for _, hint := range []float64{0.5, 1, 4} {
		tree, err := index.Build(index.KindRStar, pts, geom.Euclidean{}, hint*params.Eps)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceRun(tree, params)
		borders := 0
		for i := range want.Labels {
			if want.IsBorder(i) {
				borders++
			}
		}
		if borders == 0 {
			t.Fatal("no border object: FromCores' border pass goes untested")
		}
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("hint=%gx/workers=%d", hint, workers), func(t *testing.T) {
				res, err := Run(tree, params, Options{CollectSpecificCores: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, want) {
					t.Fatal(describeDifference(res, want))
				}
				fc, err := FromCores(tree, params, res.Core, res.Labels)
				if err != nil {
					t.Fatal(err)
				}
				if fc.RangeQueries != borders+len(want.SpecificEps) {
					t.Fatalf("FromCores counted %d region queries for %d borders and %d specific cores", fc.RangeQueries, borders, len(want.SpecificEps))
				}
				if fc.RangeQueries = want.RangeQueries; !reflect.DeepEqual(fc, want) {
					t.Fatal(describeDifference(fc, want))
				}
			})
		}
	}
}

// hugeIndex claims more objects than an int32 id can name.
type hugeIndex struct{ index.Index }

func (hugeIndex) Len() int { return math.MaxInt32 + 1 }

// TestRunParallelEdgeCases covers empty and tiny inputs and what Run makes
// of Options.Workers at its edges: more workers than objects is clamped, 1
// and everything below it is one chunk, and an input whose ids do not fit
// int32 is refused before anything is allocated for it.
func TestRunParallelEdgeCases(t *testing.T) {
	params := Params{Eps: 1, MinPts: 2}
	empty, err := Run(linearOf(nil), params, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if empty.NumClusters() != 0 || empty.RangeQueries != 0 {
		t.Fatal("empty input must produce an empty result")
	}
	one, err := Run(linearOf([]geom.Point{{0, 0}}), params, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if one.Labels[0] != cluster.Noise {
		t.Fatalf("single point below MinPts must be noise, got %v", one.Labels[0])
	}
	if _, err := Run(linearOf(nil), Params{Eps: -1, MinPts: 1}, Options{Workers: 8}); err == nil {
		t.Fatal("invalid params must be rejected")
	}
	if _, err := Run(hugeIndex{linearOf(nil)}, params, Options{}); err == nil {
		t.Fatal("more objects than int32 ids must be rejected")
	}
	// Three objects under every reading of Workers, then 600 under counts
	// that cut the id range unevenly or exceed the CPUs.
	few := linearOf([]geom.Point{{0, 0}, {0.5, 0}, {5, 5}})
	many := linearOf(uniformPoints(rand.New(rand.NewSource(9)), 600, 8))
	for _, tc := range []struct {
		idx     index.Index
		params  Params
		workers []int
	}{
		{few, params, []int{-1, 0, 1, 8}},
		{many, Params{Eps: 0.3, MinPts: 4}, []int{3, 7, 16}},
	} {
		want := referenceRun(tc.idx, tc.params)
		for _, workers := range tc.workers {
			got, err := Run(tc.idx, tc.params, Options{CollectSpecificCores: true, Workers: workers})
			if err != nil {
				t.Fatalf("n=%d/workers=%d: %v", tc.idx.Len(), workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d/workers=%d: %s", tc.idx.Len(), workers, describeDifference(got, want))
			}
		}
	}
}
