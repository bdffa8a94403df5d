package experiments

import (
	"fmt"
	"math/rand"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/distkmeans"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/pdbscan"
	"github.com/dbdc-go/dbdc/internal/quality"
)

// Comparison places DBDC between the two distributed comparators the
// paper's related-work section discusses: exact distributed DBSCAN in the
// PDBSCAN style (reference [21] — ships Eps-halos of raw objects, result
// identical to central) and distributed k-means (reference [5] — iterative
// broadcast/reduce). For each evaluation data set it reports the quality
// against the central DBSCAN reference and the bytes each method puts on
// the network. This is an extension table, not a paper figure; it
// quantifies the trade-off the paper argues qualitatively: DBDC gives up a
// little exactness for a much smaller, single-round transmission.
func Comparison(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		ID:      "comparison",
		Title:   "DBDC vs exact distributed DBSCAN vs distributed k-means (4 sites)",
		Columns: []string{"dataset", "method", "ARI vs central", "P^II", "bytes", "rounds"},
	}
	datasets := []data.Dataset{
		data.DatasetA(opt.scaled(data.DatasetASize), opt.Seed),
		data.DatasetB(opt.Seed),
		data.DatasetC(opt.Seed),
	}
	const sites = 4
	for _, ds := range datasets {
		central, _, err := runCentral(ds)
		if err != nil {
			return nil, err
		}
		addRow := func(method string, labels cluster.Labeling, bytes, rounds int) error {
			ari, err := quality.AdjustedRandIndex(labels, central.Labels)
			if err != nil {
				return err
			}
			pii, err := quality.QDBDCPII(labels, central.Labels)
			if err != nil {
				return err
			}
			t.Rows = append(t.Rows, []string{
				ds.Name, method,
				fmt.Sprintf("%.3f", ari),
				pct(pii),
				fmt.Sprintf("%d", bytes),
				fmt.Sprintf("%d", rounds),
			})
			return nil
		}
		// DBDC.
		part, err := randomPartition(ds, sites, opt)
		if err != nil {
			return nil, err
		}
		res, err := runDBDC(ds, part, dbdc.Config{Local: ds.Params, Model: model.RepScor, EpsGlobal: 2 * ds.Params.Eps})
		if err != nil {
			return nil, err
		}
		var dbdcBytes int
		for _, sr := range res.run.Sites {
			dbdcBytes += sr.UplinkBytes + sr.DownlinkBytes
		}
		if err := addRow("dbdc(scor)", res.distributed, dbdcBytes, 1); err != nil {
			return nil, err
		}
		// Exact distributed DBSCAN. Its halo trick needs spatially
		// co-located site data, but in the DBDC setting the objects are
		// born on arbitrary sites — the paper points out that the parallel
		// algorithms "start with the complete data set residing on one
		// central server and then distribute the data among the different
		// clients". The fair byte count therefore includes that initial
		// redistribution: with k sites, (1 − 1/k) of all objects must move
		// before the halo exchange can begin.
		exact, err := pdbscan.Run(ds.Points, ds.Params, sites)
		if err != nil {
			return nil, err
		}
		redistribution := len(ds.Points) * (sites - 1) / sites * ds.Points[0].Dim() * 8
		if err := addRow("pdbscan(exact)", exact.Labels,
			redistribution+exact.BytesExchanged(), 3); err != nil {
			return nil, err
		}
		// Distributed k-means with the reference cluster count, over the
		// DBDC row's site layout.
		sitePts := part.Extract(ds.Points)
		km, err := distkmeans.Run(sitePts, max(central.NumClusters(), 1), rand.New(rand.NewSource(opt.Seed)), 0)
		if err != nil {
			return nil, err
		}
		perSite := make([][]cluster.ID, sites)
		for s := range sitePts {
			perSite[s] = make([]cluster.ID, len(sitePts[s]))
			for i, a := range km.Assign[s] {
				perSite[s][i] = cluster.ID(a)
			}
		}
		kmLabels, err := data.Assemble(part, perSite, len(ds.Points))
		if err != nil {
			return nil, err
		}
		if err := addRow("dist-kmeans", kmLabels, km.BytesExchanged(), km.Rounds); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes,
		"bytes: dbdc = models up + global model down; pdbscan = spatial redistribution + halo + boundary exchange; kmeans = centroid broadcast/reduce * rounds",
		"pdbscan reproduces the central result exactly (ARI 1.0) — at the cost of shipping raw objects",
		"dist-kmeans gets the reference k; its quality ceiling is the model mismatch of Section 4",
		"dbdc's bytes are dominated by broadcasting the global model to every site; its advantage grows when sites cannot be spatially reorganized, when data changes incrementally (only changed models re-upload), and when raw objects are too sensitive to ship at all (the paper's security motivation)")
	return t, nil
}
