// Quickstart walks through the four steps of DBDC (Figure 2 of the paper)
// on generated data: local clustering, local model determination, global
// model determination and relabeling — first step by step, then with the
// one-call orchestrator.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	dbdc "github.com/dbdc-go/dbdc"
)

func main() {
	// Two sites share one spatial cluster; site B owns a second cluster.
	rng := rand.New(rand.NewSource(42))
	shared := blob(rng, 0, 0, 0.3, 400)
	siteA := append(shared[:200:200], dbdc.Point{-8, 9}) // plus one noise point
	siteB := append(shared[200:], blob(rng, 8, 8, 0.3, 300)...)

	cfg := dbdc.Config{
		Local: dbdc.Params{Eps: 0.5, MinPts: 5},
		Model: dbdc.RepScor, // specific core points with ε-ranges
	}

	// Step 1 + 2: each site clusters locally and condenses its clusters
	// into a local model.
	outA, err := dbdc.LocalStep("site-A", siteA, cfg)
	if err != nil {
		log.Fatal(err)
	}
	outB, err := dbdc.LocalStep("site-B", siteB, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("site-A: %d local clusters, %d representatives for %d points (%.1f%% of the data)\n",
		outA.Model.NumClusters, len(outA.Model.Reps), len(siteA),
		100*float64(len(outA.Model.Reps))/float64(len(siteA)))
	fmt.Printf("site-B: %d local clusters, %d representatives for %d points\n",
		outB.Model.NumClusters, len(outB.Model.Reps), len(siteB))
	fmt.Printf("uplink cost: %d + %d bytes instead of %d bytes of raw points\n",
		outA.Model.EncodedSize(), outB.Model.EncodedSize(),
		outA.Model.RawPointsSize(2)+outB.Model.RawPointsSize(2))

	// Step 3: the server merges the local models. Eps_global defaults to
	// the maximum specific ε-range, which lands near 2·Eps_local.
	global, err := dbdc.GlobalStep([]*dbdc.LocalModel{outA.Model, outB.Model}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %d global clusters from %d representatives (Eps_global=%.3f ≈ 2·Eps_local)\n",
		global.NumClusters, len(global.Reps), global.EpsGlobal)

	// Step 4: sites relabel their objects from the global model. The halves
	// of the shared cluster now carry the same global id on both sites.
	labelsA, err := dbdc.Relabel(siteA, global)
	if err != nil {
		log.Fatal(err)
	}
	labelsB, err := dbdc.Relabel(siteB, global)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shared cluster id on site-A: %d, on site-B: %d (same cluster discovered across sites)\n",
		labelsA[0], labelsB[0])

	// The same pipeline in one call, with per-site goroutines and timing.
	res, err := dbdc.Run([]dbdc.Site{
		{ID: "site-A", Points: siteA},
		{ID: "site-B", Points: siteB},
	}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("orchestrated run: %d global clusters, distributed time %v\n",
		res.Global.NumClusters, res.DistributedDuration())

	// Compare against clustering everything centrally.
	all := append(append([]dbdc.Point{}, siteA...), siteB...)
	central, err := dbdc.Cluster(all, cfg.Local)
	if err != nil {
		log.Fatal(err)
	}
	distributed := append(append(dbdc.Labeling{}, res.Sites["site-A"].Labels...),
		res.Sites["site-B"].Labels...)
	pii, err := dbdc.QualityPII(distributed, central.Labels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quality vs central clustering: Q_DBDC(P^II) = %.1f%%\n", pii*100)
}

func blob(rng *rand.Rand, cx, cy, spread float64, n int) []dbdc.Point {
	pts := make([]dbdc.Point, n)
	for i := range pts {
		pts[i] = dbdc.Point{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread}
	}
	return pts
}
