package optics

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
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

func randomClustered(rng *rand.Rand, blobs, perBlob int) []geom.Point {
	var pts []geom.Point
	for b := 0; b < blobs; b++ {
		cx, cy := rng.Float64()*50, rng.Float64()*50
		for i := 0; i < perBlob; i++ {
			pts = append(pts, geom.Point{cx + rng.NormFloat64()*0.5, cy + rng.NormFloat64()*0.5})
		}
	}
	return pts
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(linearOf(nil), dbscan.Params{Eps: 0, MinPts: 2}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestOrderingCoversAllObjectsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randomClustered(rng, 3, 60)
	res, err := Run(linearOf(pts), dbscan.Params{Eps: 2, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != len(pts) {
		t.Fatalf("ordering has %d entries for %d objects", len(res.Order), len(pts))
	}
	seen := make([]bool, len(pts))
	for _, e := range res.Order {
		if seen[e.Object] {
			t.Fatalf("object %d ordered twice", e.Object)
		}
		seen[e.Object] = true
	}
}

func TestReachabilityValleys(t *testing.T) {
	// Two tight, well-separated blobs: the reachability plot must contain
	// exactly two "valleys" separated by a big jump (or an Undefined).
	rng := rand.New(rand.NewSource(2))
	var pts []geom.Point
	for i := 0; i < 80; i++ {
		pts = append(pts, geom.Point{rng.NormFloat64() * 0.2, rng.NormFloat64() * 0.2})
	}
	for i := 0; i < 80; i++ {
		pts = append(pts, geom.Point{30 + rng.NormFloat64()*0.2, rng.NormFloat64() * 0.2})
	}
	res, err := Run(linearOf(pts), dbscan.Params{Eps: 100, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	reach := res.Reachabilities()
	// Count positions where reachability jumps above 10 (the inter-blob
	// gap dominates the intra-blob distances ~0.2).
	jumps := 0
	for _, r := range reach {
		if r > 10 {
			jumps++
		}
	}
	// The first object has Undefined (> 10); the second blob is entered
	// through one more jump. Everything else must be small.
	if jumps != 2 {
		t.Fatalf("expected exactly 2 large reachabilities, got %d", jumps)
	}
}

// Property: ExtractDBSCAN(eps') produces the same core-object partition and
// noise set as a direct DBSCAN run with eps' (border objects may differ,
// which is inherent to both algorithms' order dependence).
func TestExtractDBSCANMatchesDBSCAN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := geom.Euclidean{}
	for trial := 0; trial < 6; trial++ {
		pts := randomClustered(rng, 2+rng.Intn(3), 40+rng.Intn(40))
		// Add sprinkled noise.
		for i := 0; i < 20; i++ {
			pts = append(pts, geom.Point{rng.Float64() * 60, rng.Float64() * 60})
		}
		minPts := 4 + rng.Intn(3)
		epsGen := 3.0
		epsPrime := 0.8 + rng.Float64()
		opt, err := Run(linearOf(pts), dbscan.Params{Eps: epsGen, MinPts: minPts})
		if err != nil {
			t.Fatal(err)
		}
		extracted := opt.ExtractDBSCAN(epsPrime)
		direct, err := dbscan.Run(linearOf(pts), dbscan.Params{Eps: epsPrime, MinPts: minPts}, dbscan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Compare on core objects of the direct run.
		var exCore, dirCore cluster.Labeling
		for i := range pts {
			if direct.Core[i] {
				exCore = append(exCore, extracted[i])
				dirCore = append(dirCore, direct.Labels[i])
			}
		}
		if !exCore.EquivalentTo(dirCore) {
			t.Fatalf("core partitions differ (minPts=%d epsPrime=%v)", minPts, epsPrime)
		}
		// Noise must agree exactly: noise objects have no core within eps'.
		for i := range pts {
			wantNoise := direct.Labels[i] == cluster.Noise
			gotNoise := extracted[i] == cluster.Noise
			if wantNoise != gotNoise {
				// A border object can be claimed by different clusters but
				// never flip between noise and cluster: check directly.
				hasCore := false
				for j := range pts {
					if direct.Core[j] && e.Distance(pts[i], pts[j]) <= epsPrime {
						hasCore = true
						break
					}
				}
				if hasCore == gotNoise {
					t.Fatalf("object %d: extracted noise=%v but has core in reach=%v",
						i, gotNoise, hasCore)
				}
			}
		}
	}
}

func TestExtractAtGeneratingEps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randomClustered(rng, 3, 50)
	params := dbscan.Params{Eps: 1.5, MinPts: 5}
	opt, err := Run(linearOf(pts), params)
	if err != nil {
		t.Fatal(err)
	}
	extracted := opt.ExtractDBSCAN(params.Eps)
	direct, err := dbscan.Run(linearOf(pts), params, dbscan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if extracted.NumClusters() != direct.NumClusters() {
		t.Fatalf("cluster counts differ: %d vs %d", extracted.NumClusters(), direct.NumClusters())
	}
}

func TestHierarchyMonotonic(t *testing.T) {
	// Smaller eps' can only turn objects into noise or split clusters —
	// the number of noise objects is monotonically non-increasing in eps'.
	rng := rand.New(rand.NewSource(5))
	pts := randomClustered(rng, 3, 50)
	for i := 0; i < 30; i++ {
		pts = append(pts, geom.Point{rng.Float64() * 60, rng.Float64() * 60})
	}
	opt, err := Run(linearOf(pts), dbscan.Params{Eps: 10, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	cuts := []float64{0.3, 0.6, 1.0, 2.0, 4.0, 8.0}
	var noiseCounts []int
	for _, c := range cuts {
		noiseCounts = append(noiseCounts, opt.ExtractDBSCAN(c).NumNoise())
	}
	if !sort.SliceIsSorted(noiseCounts, func(i, j int) bool { return noiseCounts[i] > noiseCounts[j] }) {
		t.Fatalf("noise counts not non-increasing over eps cuts: %v", noiseCounts)
	}
}

func TestKthSmallest(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for k := 0; k < 5; k++ {
		cp := append([]float64(nil), vals...)
		if got := kthSmallest(cp, k); got != float64(k+1) {
			t.Fatalf("kthSmallest(%d) = %v, want %v", k, got, float64(k+1))
		}
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := Run(linearOf(nil), dbscan.Params{Eps: 1, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 0 {
		t.Fatal("nonempty ordering for empty input")
	}
	if got := res.ExtractDBSCAN(0.5); len(got) != 0 {
		t.Fatal("nonempty labeling for empty input")
	}
}

func BenchmarkOPTICS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomClustered(rng, 4, 500)
	idx, err := index.Build(index.KindRStar, pts, geom.Euclidean{}, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(idx, dbscan.Params{Eps: 2, MinPts: 5}); err != nil {
			b.Fatal(err)
		}
	}
}
