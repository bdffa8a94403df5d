package optics

import (
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// Property: the labelings ExtractDBSCAN draws from one ordering are nested —
// every cluster at a smaller cut lies entirely inside one cluster of any
// larger cut.
func TestHierarchyNested(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randomClustered(rng, 4, 60)
	for i := 0; i < 40; i++ {
		pts = append(pts, geom.Point{rng.Float64() * 60, rng.Float64() * 60})
	}
	params := dbscan.Params{Eps: 50, MinPts: 5}
	for _, kind := range index.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			res, err := Run(kindOf(t, kind, pts, params.Eps), params)
			if err != nil {
				t.Fatal(err)
			}
			cuts := []float64{0.5, 1, 2, 4, 8, 16, 32}
			labelings := make([]cluster.Labeling, len(cuts))
			for i, c := range cuts {
				labelings[i] = res.ExtractDBSCAN(c)
			}
			for k := 1; k < len(cuts); k++ {
				small, large := labelings[k-1], labelings[k]
				// Map each small cluster to the large cluster of its first
				// member; all other members must agree.
				repOf := make(map[cluster.ID]cluster.ID)
				for i := range small {
					if small[i] < 0 {
						continue
					}
					if large[i] < 0 {
						t.Fatalf("object %d clustered at cut %v but noise at %v", i, cuts[k-1], cuts[k])
					}
					if want, ok := repOf[small[i]]; !ok {
						repOf[small[i]] = large[i]
					} else if large[i] != want {
						t.Fatalf("cluster at cut %v split across clusters at %v", cuts[k-1], cuts[k])
					}
				}
			}
		})
	}
}

func TestSuggestCutSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Three tight blobs far apart: intra reachabilities ≈ 0.1, inter ≈ 25.
	var pts []geom.Point
	for _, c := range []geom.Point{{0, 0}, {50, 0}, {0, 50}} {
		for i := 0; i < 80; i++ {
			pts = append(pts, geom.Point{c[0] + rng.NormFloat64()*0.3, c[1] + rng.NormFloat64()*0.3})
		}
	}
	params := dbscan.Params{Eps: 100, MinPts: 5}
	for _, kind := range index.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			res, err := Run(kindOf(t, kind, pts, params.Eps), params)
			if err != nil {
				t.Fatal(err)
			}
			cut, err := res.SuggestCut(5)
			if err != nil {
				t.Fatal(err)
			}
			if cut < 2 || cut > 49 {
				t.Fatalf("cut %v not inside the density gap", cut)
			}
			labels := res.ExtractDBSCAN(cut)
			if got := labels.NumClusters(); got != 3 {
				t.Fatalf("suggested cut finds %d clusters, want 3", got)
			}
			if labels.NumNoise() != 0 {
				t.Fatalf("suggested cut leaves %d noise", labels.NumNoise())
			}
		})
	}
}

func TestSuggestCutErrors(t *testing.T) {
	res, err := Run(linearOf([]geom.Point{{0, 0}, {100, 100}}), dbscan.Params{Eps: 1, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.SuggestCut(5); err == nil {
		t.Fatal("cut suggested without finite reachabilities")
	}
}

func TestSuggestCutUniformData(t *testing.T) {
	// A single tight blob: all reachabilities comparable; the suggestion
	// must still return something usable (one cluster).
	rng := rand.New(rand.NewSource(3))
	var pts []geom.Point
	for i := 0; i < 150; i++ {
		pts = append(pts, geom.Point{rng.NormFloat64(), rng.NormFloat64()})
	}
	res, err := Run(linearOf(pts), dbscan.Params{Eps: 50, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := res.SuggestCut(5)
	if err != nil {
		t.Fatal(err)
	}
	labels := res.ExtractDBSCAN(cut)
	if labels.NumClusters() < 1 {
		t.Fatalf("no clusters at suggested cut %v", cut)
	}
}
