package pdbscan

import (
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

func central(t *testing.T, pts []geom.Point, params dbscan.Params) *dbscan.Result {
	t.Helper()
	lin, err := index.Build(index.KindLinear, pts, geom.Euclidean{}, params.Eps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dbscan.Run(lin, params, dbscan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkExact verifies the defining property of the exact comparator: the
// distributed result matches central DBSCAN in core flags, noise set and
// core partition.
func checkExact(t *testing.T, pts []geom.Point, params dbscan.Params, res *Result) {
	t.Helper()
	ref := central(t, pts, params)
	for i := range pts {
		if res.Core[i] != ref.Core[i] {
			t.Fatalf("core flag of %d differs from central", i)
		}
		if (res.Labels[i] == cluster.Noise) != (ref.Labels[i] == cluster.Noise) {
			t.Fatalf("noise status of %d differs from central", i)
		}
	}
	var a, b cluster.Labeling
	for i := range pts {
		if ref.Core[i] {
			a = append(a, res.Labels[i])
			b = append(b, ref.Labels[i])
		}
	}
	if !a.EquivalentTo(b) {
		t.Fatal("core partition differs from central")
	}
	// Border objects sit within Eps of a core of their assigned cluster.
	e := geom.Euclidean{}
	for i := range pts {
		if res.Labels[i] >= 0 && !res.Core[i] {
			ok := false
			for j := range pts {
				if res.Core[j] && res.Labels[j] == res.Labels[i] &&
					e.Distance(pts[i], pts[j]) <= params.Eps {
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

func TestValidation(t *testing.T) {
	if _, err := Run(nil, dbscan.Params{Eps: 0, MinPts: 2}, 2); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := Run(nil, dbscan.Params{Eps: 1, MinPts: 2}, 0); err == nil {
		t.Error("zero partitions accepted")
	}
	res, err := Run(nil, dbscan.Params{Eps: 1, MinPts: 2}, 2)
	if err != nil || len(res.Labels) != 0 {
		t.Fatalf("empty input: %v, %v", res, err)
	}
}

func TestSinglePartitionEqualsCentral(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 300)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 10, rng.Float64() * 10}
	}
	params := dbscan.Params{Eps: 0.6, MinPts: 4}
	res, err := Run(pts, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, pts, params, res)
	if res.HaloBytes != 0 {
		t.Fatalf("single partition exchanged %d halo bytes", res.HaloBytes)
	}
}

// The core exactness property across partition counts, cluster shapes and
// clusters deliberately straddling stripe boundaries.
func TestExactAcrossPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var pts []geom.Point
	// A horizontal band crossing all stripes...
	for i := 0; i < 400; i++ {
		pts = append(pts, geom.Point{rng.Float64() * 40, rng.NormFloat64() * 0.3})
	}
	// ...two compact clusters...
	for i := 0; i < 150; i++ {
		pts = append(pts, geom.Point{10 + rng.NormFloat64()*0.4, 10 + rng.NormFloat64()*0.4})
	}
	for i := 0; i < 150; i++ {
		pts = append(pts, geom.Point{30 + rng.NormFloat64()*0.4, 10 + rng.NormFloat64()*0.4})
	}
	// ...and sprinkled noise.
	for i := 0; i < 60; i++ {
		pts = append(pts, geom.Point{rng.Float64() * 40, 4 + rng.Float64()*4})
	}
	params := dbscan.Params{Eps: 0.7, MinPts: 5}
	for _, partitions := range []int{2, 3, 5, 8} {
		res, err := Run(pts, params, partitions)
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, pts, params, res)
		if partitions > 1 && res.HaloBytes == 0 {
			t.Fatalf("partitions=%d: no halo exchanged", partitions)
		}
		if res.BytesExchanged() != res.HaloBytes+res.MergeBytes {
			t.Fatal("byte accounting inconsistent")
		}
	}
}

func TestExactOnDatasets(t *testing.T) {
	for _, ds := range data.ABC(3) {
		res, err := Run(ds.Points, ds.Params, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, ds.Points, ds.Params, res)
	}
}

// Property: on random data with random partition counts the exactness
// invariants hold.
func TestExactRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 6; trial++ {
		n := 100 + rng.Intn(400)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{rng.Float64() * 12, rng.Float64() * 12}
		}
		params := dbscan.Params{Eps: 0.4 + rng.Float64()*0.5, MinPts: 3 + rng.Intn(4)}
		res, err := Run(pts, params, 1+rng.Intn(6))
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, pts, params, res)
	}
}

func TestDuplicateXCoordinates(t *testing.T) {
	// Many identical x values straddling stripe boundaries stress the
	// stripe-splitting logic.
	var pts []geom.Point
	for i := 0; i < 200; i++ {
		pts = append(pts, geom.Point{float64(i % 4), float64(i) * 0.01})
	}
	params := dbscan.Params{Eps: 0.5, MinPts: 4}
	res, err := Run(pts, params, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, pts, params, res)
}

// TestBorderTakesLowestIDCore: a border object that two of its site's own
// clusters reach takes the cluster of its lowest-id core neighbour, as a
// central run gives it — whatever order its neighbourhood lists them in, and
// although the cluster of the higher ids lies first along the stripe axis.
func TestBorderTakesLowestIDCore(t *testing.T) {
	pts := []geom.Point{
		{2.0, 0}, {2.1, 0}, {2.2, 0}, {2.3, 0}, // cluster of ids 0-3
		{-0.3, 0}, {-0.2, 0}, {-0.1, 0}, {0.0, 0}, // cluster of ids 4-7
		{1.0, 0}, // border object 8, at exactly Eps from ids 0 and 7
	}
	params := dbscan.Params{Eps: 1, MinPts: 4}
	res, err := Run(pts, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, pts, params, res)
	if res.Core[8] || res.Labels[8] != res.Labels[0] || res.Labels[0] == res.Labels[4] {
		t.Fatalf("labels %v (core %v): border 8 must join the cluster of core 0", res.Labels, res.Core)
	}
	if central := central(t, pts, params); !res.Labels.EquivalentTo(central.Labels) {
		t.Fatalf("labels %v, central %v", res.Labels, central.Labels)
	}
}
