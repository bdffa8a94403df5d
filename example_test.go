package dbdc_test

import (
	"fmt"

	dbdc "github.com/dbdc-go/dbdc"
)

// grid3x3 returns a tight 3x3 grid of points around (cx, cy) — a
// deterministic miniature cluster for the documentation examples.
func grid3x3(cx, cy float64) []dbdc.Point {
	var pts []dbdc.Point
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			pts = append(pts, dbdc.Point{cx + 0.1*float64(dx), cy + 0.1*float64(dy)})
		}
	}
	return pts
}

// ExampleRun shows the one-call distributed pipeline: one spatial cluster
// split over two sites is reunified under a single global cluster id.
func ExampleRun() {
	cluster := append(grid3x3(0, 0), grid3x3(0.5, 0)...)
	res, err := dbdc.Run([]dbdc.Site{
		{ID: "left", Points: cluster[:9]},
		{ID: "right", Points: cluster[9:]},
	}, dbdc.Config{Local: dbdc.Params{Eps: 0.3, MinPts: 4}})
	if err != nil {
		panic(err)
	}
	fmt.Println("global clusters:", res.Global.NumClusters)
	fmt.Println("same id on both sites:", res.Sites["left"].Labels[0] == res.Sites["right"].Labels[0])
	// Output:
	// global clusters: 1
	// same id on both sites: true
}

// ExampleCluster runs the central DBSCAN baseline.
func ExampleCluster() {
	pts := append(grid3x3(0, 0), grid3x3(10, 10)...)
	pts = append(pts, dbdc.Point{5, 5}) // isolated noise
	res, err := dbdc.Cluster(pts, dbdc.Params{Eps: 0.3, MinPts: 4})
	if err != nil {
		panic(err)
	}
	fmt.Println("clusters:", res.NumClusters())
	fmt.Println("noise:", res.Labels.NumNoise())
	// Output:
	// clusters: 2
	// noise: 1
}

// ExampleLocalStep demonstrates the local model a site would transmit:
// a handful of representatives instead of the raw points.
func ExampleLocalStep() {
	pts := grid3x3(0, 0)
	out, err := dbdc.LocalStep("site-1", pts, dbdc.Config{
		Local: dbdc.Params{Eps: 0.3, MinPts: 4},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("local clusters:", out.Model.NumClusters)
	fmt.Println("representatives:", len(out.Model.Reps))
	fmt.Println("wire bytes:", out.Model.EncodedSize() < out.Model.RawPointsSize(2))
	// Output:
	// local clusters: 1
	// representatives: 1
	// wire bytes: true
}

// ExampleQualityPII evaluates a distributed clustering against the central
// reference with the paper's continuous quality measure.
func ExampleQualityPII() {
	central := dbdc.Labeling{0, 0, 0, 0, dbdc.Noise}
	distributed := dbdc.Labeling{7, 7, 7, 7, dbdc.Noise} // same partition, renamed
	q, err := dbdc.QualityPII(distributed, central)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Q_DBDC = %.0f%%\n", q*100)
	// Output:
	// Q_DBDC = 100%
}
