package dbscan

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

func linearOf(pts []geom.Point) index.Index {
	idx, err := index.Build(index.KindLinear, pts, geom.Euclidean{}, 0)
	if err != nil {
		panic(err)
	}
	return idx
}

// twoBlobs returns two well-separated Gaussian blobs plus far-away noise.
func twoBlobs(rng *rand.Rand, perBlob int) ([]geom.Point, int) {
	var pts []geom.Point
	for i := 0; i < perBlob; i++ {
		pts = append(pts, geom.Point{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3})
	}
	for i := 0; i < perBlob; i++ {
		pts = append(pts, geom.Point{10 + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3})
	}
	noise := []geom.Point{{100, 100}, {-100, 50}, {50, -100}}
	pts = append(pts, noise...)
	return pts, len(noise)
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name   string
		p      Params
		reject string // what the error names; empty when the parameters are legal
	}{
		{"eps-zero", Params{Eps: 0, MinPts: 3}, "got 0"},
		{"eps-negative", Params{Eps: -1, MinPts: 3}, "got -1"},
		{"eps-nan", Params{Eps: math.NaN(), MinPts: 3}, "NaN"},
		{"eps-inf", Params{Eps: math.Inf(1), MinPts: 3}, "+Inf"},
		{"eps-minus-inf", Params{Eps: math.Inf(-1), MinPts: 3}, "-Inf"},
		{"minpts-zero", Params{Eps: 1, MinPts: 0}, "got 0"},
		{"valid", Params{Eps: 1, MinPts: 3}, ""},
		{"eps-wider-than-any-data", Params{Eps: math.MaxFloat64, MinPts: 3}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate()
			if c.reject == "" && err != nil {
				t.Fatalf("legal parameters rejected: %v", err)
			}
			if c.reject != "" && (err == nil || !strings.Contains(err.Error(), c.reject)) {
				t.Fatalf("err %v, want an error naming %s", err, c.reject)
			}
		})
	}
	if _, err := Run(linearOf(nil), Params{Eps: -1, MinPts: 2}, Options{}); err == nil {
		t.Error("Run accepted invalid params")
	}
}

func TestTwoClustersAndNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, numNoise := twoBlobs(rng, 100)
	res, err := Run(linearOf(pts), Params{Eps: 0.5, MinPts: 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.NumClusters(); got != 2 {
		t.Fatalf("NumClusters = %d, want 2", got)
	}
	if got := res.Labels.NumNoise(); got != numNoise {
		t.Fatalf("NumNoise = %d, want %d", got, numNoise)
	}
	// The two blobs must be in different clusters.
	if res.Labels[0] == res.Labels[100] {
		t.Fatal("blobs merged")
	}
	// All members of blob 1 share a label.
	for i := 1; i < 100; i++ {
		if res.Labels[i] != res.Labels[0] {
			t.Fatalf("blob 1 split at %d", i)
		}
	}
	if err := res.Labels.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := Run(linearOf(nil), Params{Eps: 1, MinPts: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 0 || len(res.Labels) != 0 {
		t.Fatal("empty input should produce empty result")
	}
}

func TestAllNoise(t *testing.T) {
	pts := []geom.Point{{0, 0}, {10, 10}, {20, 20}}
	res, err := Run(linearOf(pts), Params{Eps: 1, MinPts: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 0 {
		t.Fatalf("NumClusters = %d, want 0", res.NumClusters())
	}
	if res.Labels.NumNoise() != 3 {
		t.Fatalf("NumNoise = %d, want 3", res.Labels.NumNoise())
	}
}

func TestSingleCluster(t *testing.T) {
	var pts []geom.Point
	for i := 0; i < 10; i++ {
		pts = append(pts, geom.Point{float64(i) * 0.1, 0})
	}
	res, err := Run(linearOf(pts), Params{Eps: 0.15, MinPts: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 1 {
		t.Fatalf("NumClusters = %d, want 1", res.NumClusters())
	}
	if res.Labels.NumNoise() != 0 {
		t.Fatal("chain should have no noise")
	}
}

func TestMinPtsOneEveryPointIsACluster(t *testing.T) {
	pts := []geom.Point{{0, 0}, {10, 10}}
	res, err := Run(linearOf(pts), Params{Eps: 1, MinPts: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 2 || res.Labels.NumNoise() != 0 {
		t.Fatalf("MinPts=1: clusters=%d noise=%d", res.NumClusters(), res.Labels.NumNoise())
	}
}

func TestBorderObject(t *testing.T) {
	// Three dense points and one reachable border point.
	pts := []geom.Point{{0, 0}, {0.1, 0}, {0, 0.1}, {0.9, 0}}
	res, err := Run(linearOf(pts), Params{Eps: 1, MinPts: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Point 0 sees all four points: core. Point 3 sees only 0 and itself
	// within eps=1? dist(3,1)=0.8, dist(3,2)≈0.9055 — it sees everything.
	// Use a tighter check: every labelled non-core point must have a core
	// point in its neighborhood.
	for i := range pts {
		if res.Labels[i] >= 0 && !res.Core[i] {
			found := false
			for j := range pts {
				if res.Core[j] && (geom.Euclidean{}).Distance(pts[i], pts[j]) <= 1 {
					found = true
				}
			}
			if !found {
				t.Fatalf("border object %d has no core in reach", i)
			}
			if !res.IsBorder(i) {
				t.Fatalf("IsBorder(%d) = false for border object", i)
			}
		}
	}
}

// checkDBSCANDefinition verifies the defining properties of a DBSCAN
// clustering (Definitions 1-5): every cluster member is density-reachable
// from a core point of its cluster, core points within Eps of each other
// share a cluster (maximality), border points touch a core of their cluster,
// and noise points have no core point within Eps.
func checkDBSCANDefinition(t *testing.T, pts []geom.Point, res *Result) {
	t.Helper()
	e := geom.Euclidean{}
	eps, minPts := res.Params.Eps, res.Params.MinPts
	for i := range pts {
		// Core flags are consistent with neighborhood cardinality.
		count := 0
		for j := range pts {
			if e.Distance(pts[i], pts[j]) <= eps {
				count++
			}
		}
		if res.Core[i] != (count >= minPts) {
			t.Fatalf("core flag of %d wrong: count=%d minPts=%d", i, count, minPts)
		}
	}
	for i := range pts {
		for j := range pts {
			if i == j || e.Distance(pts[i], pts[j]) > eps {
				continue
			}
			// Maximality: two core points within Eps are density-connected,
			// hence share a cluster.
			if res.Core[i] && res.Core[j] && res.Labels[i] != res.Labels[j] {
				t.Fatalf("core points %d and %d within Eps but in different clusters", i, j)
			}
			// Anything within Eps of a core point must not be noise.
			if res.Core[i] && res.Labels[j] == cluster.Noise {
				t.Fatalf("object %d is within Eps of core %d but labelled noise", j, i)
			}
		}
	}
	for i := range pts {
		if res.Labels[i] >= 0 && !res.Core[i] {
			// Border: some core of the same cluster reaches it.
			ok := false
			for j := range pts {
				if res.Core[j] && res.Labels[j] == res.Labels[i] &&
					e.Distance(pts[i], pts[j]) <= eps {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("border object %d unreachable from its cluster", i)
			}
		}
	}
}

// Property: the definitional invariants hold on random data across
// parameter settings and index kinds.
func TestDefinitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		n := 30 + rng.Intn(200)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{rng.Float64() * 10, rng.Float64() * 10}
		}
		eps := 0.3 + rng.Float64()
		minPts := 2 + rng.Intn(5)
		for _, kind := range index.Kinds() {
			idx, err := index.Build(kind, pts, geom.Euclidean{}, eps)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(idx, Params{Eps: eps, MinPts: minPts}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkDBSCANDefinition(t, pts, res)
		}
	}
}

// Property: the produced partition is identical (up to cluster renaming) for
// every index kind — DBSCAN's clusters are determined by the data, the
// parameters and (only for border-point assignment) the processing order,
// which Run fixes by object index.
func TestIndexKindsAgreeOnCorePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]geom.Point, 400)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 5, rng.Float64() * 5}
	}
	params := Params{Eps: 0.4, MinPts: 4}
	var results []*Result
	for _, kind := range index.Kinds() {
		idx, err := index.Build(kind, pts, geom.Euclidean{}, params.Eps)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(idx, params, Options{})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	base := results[0]
	for k, res := range results[1:] {
		t.Run(string(index.Kinds()[k+1]), func(t *testing.T) {
			// Core flags must agree exactly.
			for i := range pts {
				if res.Core[i] != base.Core[i] {
					t.Fatalf("core flag of %d differs", i)
				}
			}
			// The partition restricted to core points must agree.
			coreBase := cluster.Labeling{}
			coreRes := cluster.Labeling{}
			for i := range pts {
				if base.Core[i] {
					coreBase = append(coreBase, base.Labels[i])
					coreRes = append(coreRes, res.Labels[i])
				}
			}
			if !coreBase.EquivalentTo(coreRes) {
				t.Fatal("core partition differs")
			}
		})
	}
}

func TestRangeQueriesCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts, _ := twoBlobs(rng, 50)
	res, err := Run(linearOf(pts), Params{Eps: 0.5, MinPts: 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every object triggers at least one region query over the course of the
	// run (the paper's complexity analysis counts exactly n queries).
	if res.RangeQueries < len(pts) {
		t.Fatalf("RangeQueries = %d, want >= %d", res.RangeQueries, len(pts))
	}
}
