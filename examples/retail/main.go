// Retail examines how the data-to-site layout affects DBDC quality: the
// paper's experiments distribute objects over sites uniformly at random
// (every store sees every customer segment), but a real supermarket chain
// is spatially skewed — each store sees mostly its own region. This example
// runs both layouts on the same data and compares Q_DBDC against the
// central reference, demonstrating the representative/ε-range mechanism
// stitching region-spanning clusters back together.
//
// Run with: go run ./examples/retail
package main

import (
	"fmt"
	"log"
	"math/rand"

	dbdc "github.com/dbdc-go/dbdc"
)

func main() {
	rng := rand.New(rand.NewSource(99))
	// Customer feature space (e.g. basket value × visit frequency): four
	// segments, one of them an elongated arc that spans "regions".
	var pts []dbdc.Point
	for _, c := range [][3]float64{{0, 0, 0.5}, {8, 1, 0.6}, {4, 8, 0.5}} {
		for i := 0; i < 700; i++ {
			pts = append(pts, dbdc.Point{c[0] + rng.NormFloat64()*c[2], c[1] + rng.NormFloat64()*c[2]})
		}
	}
	for i := 0; i < 900; i++ { // the arc segment
		x := rng.Float64() * 12
		pts = append(pts, dbdc.Point{x - 2, -5 + 0.05*(x-5)*(x-5) + rng.NormFloat64()*0.25})
	}
	params := dbdc.Params{Eps: 0.5, MinPts: 5}
	central, err := dbdc.Cluster(pts, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("central reference: %d clusters, %d noise of %d customers\n\n",
		central.NumClusters(), central.Labels.NumNoise(), len(pts))

	const stores = 6
	layouts := map[string]*dbdc.Partition{}
	if layouts["random (paper layout)"], err = dbdc.PartitionRandom(len(pts), stores, rng); err != nil {
		log.Fatal(err)
	}
	if layouts["spatially skewed"], err = dbdc.PartitionSpatial(pts, stores); err != nil {
		log.Fatal(err)
	}

	for name, part := range layouts {
		sites := make([]dbdc.Site, 0, stores)
		for s, idxs := range part.Sites {
			sitePts := make([]dbdc.Point, len(idxs))
			for j, i := range idxs {
				sitePts[j] = pts[i]
			}
			sites = append(sites, dbdc.Site{ID: fmt.Sprintf("store-%d", s+1), Points: sitePts})
		}
		res, err := dbdc.Run(sites, dbdc.Config{Local: params, Model: dbdc.RepKMeans})
		if err != nil {
			log.Fatal(err)
		}
		// Reassemble the distributed labeling in data set order.
		distributed := make(dbdc.Labeling, len(pts))
		for s, idxs := range part.Sites {
			labels := res.Sites[sites[s].ID].Labels
			for j, i := range idxs {
				distributed[i] = labels[j]
			}
		}
		pii, err := dbdc.QualityPII(distributed, central.Labels)
		if err != nil {
			log.Fatal(err)
		}
		var uplink int
		for _, sr := range res.Sites {
			uplink += sr.UplinkBytes
		}
		fmt.Printf("%s:\n", name)
		fmt.Printf("  global clusters: %d (central found %d)\n",
			res.Global.NumClusters, central.NumClusters())
		fmt.Printf("  Q_DBDC(P^II) vs central: %.1f%%\n", pii*100)
		fmt.Printf("  representatives: %d (%.1f%% of the data), uplink %d B\n\n",
			res.TotalRepresentatives(),
			100*float64(res.TotalRepresentatives())/float64(len(pts)), uplink)
	}
	fmt.Println("even when every store only sees its own spatial sector, the ε-ranges of the")
	fmt.Println("representatives let the server merge the sector-fragments of region-spanning segments")
}
