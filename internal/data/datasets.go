// Package data synthesizes the evaluation data sets of the DBDC paper and
// provides the partitioners that distribute them over client sites. The
// paper's three 2-dimensional test sets are not published, so this package
// generates analogues matching their stated cardinalities and
// characteristics (Section 9, Figure 6): A — randomly generated clusters,
// 8700 objects by default and scalable for the cardinality sweeps; B —
// 4000 objects of very noisy data; C — 1021 objects in 3 clusters. All
// generators are deterministic given a seed.
package data

import (
	"math/rand"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
)

// Dataset couples a generated point set with the DBSCAN parameters suited
// to its density, the values every experiment of Section 9 needs.
type Dataset struct {
	Name string
	// Store holds the generated points in one flat stride-2 backing array —
	// the layout the store-backed indexes build from without copying.
	Store *geom.Store
	// Points are zero-copy views into Store (Store.Views()), kept for every
	// slice-shaped consumer: Points[i] aliases Store.Point(i).
	Points []geom.Point
	// Params are the Eps_local / MinPts settings used for both the central
	// reference clustering and the site-local clusterings.
	Params dbscan.Params
	// Truth is the generator's ground-truth labeling (cluster index per
	// point, Noise for background points). The paper's quality measures
	// compare against a central clustering, not the truth; the truth
	// enables the additional sanity columns of the extension tables.
	Truth cluster.Labeling
}

// DatasetASize is the cardinality of test data set A in the paper.
const DatasetASize = 8700

// DatasetA generates the analogue of test data set A ("randomly generated
// data/cluster"): cluster centers drawn at random over the domain, 95% of
// the points in Gaussian clusters, 5% background noise. n scales the
// cardinality for the sweeps of Figures 7 and 8; the geometry is fixed, so
// growing n grows the density, exactly like sampling the same distribution
// harder.
func DatasetA(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	const domain = 100.0
	// Scale the cluster count with the cardinality so the per-cluster
	// density — and with it the suitability of the fixed Eps — stays
	// comparable across the Figure 7 sweep from a few hundred to a hundred
	// thousand objects.
	numClusters := n / 500
	if numClusters < 3 {
		numClusters = 3
	}
	if numClusters > 10 {
		numClusters = 10
	}
	centers := make([]geom.Point, numClusters)
	for i := range centers {
		// Keep centers away from the border so clusters stay in-domain.
		centers[i] = geom.Point{5 + rng.Float64()*(domain-10), 5 + rng.Float64()*(domain-10)}
	}
	clustered := n * 95 / 100
	st := geom.NewStore(2, n)
	truth := make(cluster.Labeling, 0, n)
	for i := 0; i < clustered; i++ {
		c := centers[i%numClusters]
		st.AppendCoords(c[0]+rng.NormFloat64()*2, c[1]+rng.NormFloat64()*2)
		truth = append(truth, cluster.ID(i%numClusters))
	}
	AppendUniform(st, rng,
		geom.NewRect(geom.Point{0, 0}, geom.Point{domain, domain}), n-clustered)
	for len(truth) < st.Len() {
		truth = append(truth, cluster.Noise)
	}
	return Dataset{
		Name:   "A",
		Store:  st,
		Points: st.Views(),
		Params: dbscan.Params{Eps: 1.2, MinPts: 4},
		Truth:  truth,
	}
}

// DatasetBSize is the cardinality of test data set B in the paper.
const DatasetBSize = 4000

// DatasetB generates the analogue of test data set B ("very noisy data"):
// 4000 objects of which 40% are uniform background noise around a handful
// of loose clusters.
func DatasetB(seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	const domain = 60.0
	n := DatasetBSize
	noise := n * 40 / 100
	clustered := n - noise
	centers := []geom.Point{{12, 12}, {45, 15}, {30, 45}, {12, 48}, {50, 50}}
	st := geom.NewStore(2, n)
	truth := make(cluster.Labeling, 0, n)
	for i := 0; i < clustered; i++ {
		c := centers[i%len(centers)]
		st.AppendCoords(c[0]+rng.NormFloat64()*1.8, c[1]+rng.NormFloat64()*1.8)
		truth = append(truth, cluster.ID(i%len(centers)))
	}
	AppendUniform(st, rng,
		geom.NewRect(geom.Point{0, 0}, geom.Point{domain, domain}), noise)
	for len(truth) < st.Len() {
		truth = append(truth, cluster.Noise)
	}
	return Dataset{
		Name:   "B",
		Store:  st,
		Points: st.Views(),
		Params: dbscan.Params{Eps: 1.0, MinPts: 8},
		Truth:  truth,
	}
}

// DatasetCSize is the cardinality of test data set C in the paper.
const DatasetCSize = 1021

// DatasetC generates the analogue of test data set C: 1021 objects in 3
// well-separated clusters — one globular, plus a ring enclosing a second
// globular cluster. The concentric pair is DBSCAN's favourite shape
// demonstration and the configuration the paper's Section 4 argues k-means
// cannot capture (its convex cells can never separate a ring from the
// cluster it encloses). No background noise.
func DatasetC(seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	st := geom.NewStore(2, DatasetCSize)
	AppendBlob(st, rng, geom.Point{10, 10}, 1.2, 340)
	AppendBlob(st, rng, geom.Point{32, 28}, 0.6, 340)
	AppendRing(st, rng, 32, 28, 5, 0.25, DatasetCSize-680)
	truth := make(cluster.Labeling, DatasetCSize)
	for i := range truth {
		switch {
		case i < 340:
			truth[i] = 0
		case i < 680:
			truth[i] = 1
		default:
			truth[i] = 2
		}
	}
	return Dataset{
		Name:   "C",
		Store:  st,
		Points: st.Views(),
		Params: dbscan.Params{Eps: 1.0, MinPts: 4},
		Truth:  truth,
	}
}

// RoundBulk generates the data set of the benchmark's round-bulk workload
// (bench/round.go deals n = 32 000 of it round-robin to two sites): DatasetA's
// shape — 95% of the points in ten Gaussian clusters of σ 2 in a 100×100
// domain, 5% uniform noise, DatasetA's parameters — with the centres fixed, so
// that the seed draws the points only. Tests and benchmarks that quote the
// workload's counts build it from here.
func RoundBulk(n int, seed int64) Dataset {
	centres := []geom.Point{
		{15, 15}, {50, 12}, {85, 18}, {30, 40}, {68, 42},
		{12, 65}, {48, 70}, {86, 66}, {28, 90}, {70, 92},
	}
	rng := rand.New(rand.NewSource(seed))
	st := geom.NewStore(2, n)
	truth := make(cluster.Labeling, 0, n)
	clustered := n * 95 / 100
	for i, c := range centres {
		k := clustered / len(centres)
		if i < clustered%len(centres) {
			k++
		}
		AppendBlob(st, rng, c, 2, k)
		for ; k > 0; k-- {
			truth = append(truth, cluster.ID(i))
		}
	}
	AppendUniform(st, rng, geom.NewRect(geom.Point{0, 0}, geom.Point{100, 100}), n-clustered)
	for len(truth) < n {
		truth = append(truth, cluster.Noise)
	}
	return Dataset{
		Name:   "round-bulk",
		Store:  st,
		Points: st.Views(),
		Params: dbscan.Params{Eps: 1.2, MinPts: 4},
		Truth:  truth,
	}
}

// ABC returns the three evaluation data sets at their paper cardinalities.
func ABC(seed int64) []Dataset {
	return []Dataset{DatasetA(DatasetASize, seed), DatasetB(seed), DatasetC(seed)}
}
