// Command dbdc clusters a CSV of points, either centrally with DBSCAN or
// distributed with DBDC over simulated sites, and writes one cluster id per
// input row (-1 for noise).
//
// Usage:
//
//	dbdc -input points.csv -eps 1.2 -minpts 4                  # central DBSCAN
//	dbdc -input points.csv -eps 1.2 -minpts 4 -sites 4         # DBDC, 4 sites
//	dbdc ... -model rep-kmeans -epsglobal 2.4 -index mtree
//
// With -sites > 1 the input is split over that many simulated sites
// round-robin, the full DBDC pipeline runs, and the printed labels are the
// global cluster ids after relabeling. The summary on stderr reports the
// transmission cost of the round.
package main

import (
	"flag"
	"fmt"
	"os"

	lib "github.com/dbdc-go/dbdc"
	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/viz"
)

func main() {
	input := flag.String("input", "", "input CSV of points (required)")
	eps := flag.Float64("eps", 0, "DBSCAN Eps (required)")
	minPts := flag.Int("minpts", 0, "DBSCAN MinPts (required)")
	sites := flag.Int("sites", 1, "number of simulated sites; 1 = central DBSCAN")
	modelKind := flag.String("model", string(lib.RepScor), "local model: rep-scor or rep-kmeans")
	epsGlobal := flag.Float64("epsglobal", 0, "Eps_global; 0 = paper default (max specific ε-range)")
	autoEps := flag.Bool("autoeps", false, "derive Eps_global from the representatives' density structure (OPTICS gap cut) instead of a fixed radius")
	idx := flag.String("index", string(lib.IndexRStar), "neighborhood index")
	out := flag.String("o", "", "output file for labels (default stdout)")
	plot := flag.Bool("plot", false, "print an ASCII scatter plot of the clustering to stderr")
	flag.Parse()

	if *input == "" || *eps <= 0 || *minPts < 1 {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*input)
	if err != nil {
		fatal(err)
	}
	pts, err := data.ReadCSV(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	params := lib.Params{Eps: *eps, MinPts: *minPts}

	var labels lib.Labeling
	if *sites <= 1 {
		res, err := lib.Cluster(pts, params, lib.IndexKind(*idx))
		if err != nil {
			fatal(err)
		}
		labels = res.Labels
		fmt.Fprintf(os.Stderr, "dbdc: central DBSCAN: %d clusters, %d noise of %d points\n",
			res.NumClusters(), res.Labels.NumNoise(), len(pts))
	} else {
		part, err := data.PartitionRoundRobin(len(pts), *sites)
		if err != nil {
			fatal(err)
		}
		sitePts := part.Extract(pts)
		siteList := make([]lib.Site, *sites)
		for s := range siteList {
			siteList[s] = lib.Site{ID: fmt.Sprintf("site-%02d", s), Points: sitePts[s]}
		}
		cfg := lib.Config{
			Local:         params,
			Model:         lib.ModelKind(*modelKind),
			EpsGlobal:     *epsGlobal,
			EpsGlobalAuto: *autoEps,
			Index:         lib.IndexKind(*idx),
		}
		res, err := lib.Run(siteList, cfg)
		if err != nil {
			fatal(err)
		}
		perSite := make([][]cluster.ID, *sites)
		var uplink, downlink int
		for s := range siteList {
			sr := res.Sites[siteList[s].ID]
			perSite[s] = sr.Labels
			uplink += sr.UplinkBytes
			downlink += sr.DownlinkBytes
		}
		labels, err = data.Assemble(part, perSite, len(pts))
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr,
			"dbdc: DBDC over %d sites: %d global clusters, %d noise of %d points, %d representatives (%.1f%%), uplink %dB, downlink %dB/site, distributed time %v\n",
			*sites, res.Global.NumClusters, labels.NumNoise(), len(pts),
			res.TotalRepresentatives(),
			100*float64(res.TotalRepresentatives())/float64(len(pts)),
			uplink, res.Global.EncodedSize(), res.DistributedDuration())
		fmt.Fprintf(os.Stderr, "dbdc: Eps_global used: %g (%.2fx Eps_local)\n",
			res.Global.EpsGlobal, res.Global.EpsGlobal / *eps)
	}

	if *plot {
		rendered, err := viz.Scatter(pts, labels, 72, 28)
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(os.Stderr, rendered)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	for _, id := range labels {
		fmt.Fprintln(w, id)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dbdc: %v\n", err)
	os.Exit(1)
}
