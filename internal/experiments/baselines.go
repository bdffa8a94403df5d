package experiments

import (
	"fmt"
	"math/rand"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/kmeans"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/quality"
)

// Baselines quantifies Section 4's argument for choosing DBSCAN as the
// local clusterer: "K-means ... does not perform well on data with
// outliers or with clusters of different sizes or non-globular shapes."
// For each evaluation data set it compares, against the central DBSCAN
// reference (adjusted Rand index), a central k-means baseline (k set to
// the reference cluster count, k-means++ seeding) and the full DBDC
// pipeline. Data set C contains a ring — the shape k-means cannot
// represent — and data set B is dominated by outliers; both should sink
// the baseline while DBDC stays close to the reference. This is an
// extension table, not a paper figure.
func Baselines(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		ID:    "baselines",
		Title: "central k-means baseline vs DBDC (adjusted Rand index vs central DBSCAN)",
		Columns: []string{"dataset", "n", "ref clusters", "ARI(kmeans)", "ARI(dbdc)", "P^II(dbdc)",
			"ARI(kmeans,truth)", "ARI(dbdc,truth)"},
	}
	datasets := []data.Dataset{
		data.DatasetA(opt.scaled(data.DatasetASize), opt.Seed),
		data.DatasetB(opt.Seed),
		data.DatasetC(opt.Seed),
	}
	for _, ds := range datasets {
		central, _, err := runCentral(ds, opt)
		if err != nil {
			return nil, err
		}
		k := central.NumClusters()
		if k < 1 {
			k = 1
		}
		km, err := kmeans.Run(ds.Points, k, rand.New(rand.NewSource(opt.Seed)), 0)
		if err != nil {
			return nil, err
		}
		kmLabels := make(cluster.Labeling, len(ds.Points))
		for i, a := range km.Assign {
			kmLabels[i] = cluster.ID(a)
		}
		ariKM, err := quality.AdjustedRandIndex(kmLabels, central.Labels)
		if err != nil {
			return nil, err
		}
		res, err := runDBDC(ds, fig7Sites, model.RepScor, 2*ds.Params.Eps, opt)
		if err != nil {
			return nil, err
		}
		ariDBDC, err := quality.AdjustedRandIndex(res.distributed, central.Labels)
		if err != nil {
			return nil, err
		}
		_, pii, err := qualities(res.distributed, central.Labels, ds.Params.MinPts)
		if err != nil {
			return nil, err
		}
		ariKMTruth, err := quality.AdjustedRandIndex(kmLabels, ds.Truth)
		if err != nil {
			return nil, err
		}
		ariDBDCTruth, err := quality.AdjustedRandIndex(res.distributed, ds.Truth)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			ds.Name,
			fmt.Sprintf("%d", len(ds.Points)),
			fmt.Sprintf("%d", central.NumClusters()),
			fmt.Sprintf("%.3f", ariKM),
			fmt.Sprintf("%.3f", ariDBDC),
			pct(pii),
			fmt.Sprintf("%.3f", ariKMTruth),
			fmt.Sprintf("%.3f", ariDBDCTruth),
		})
	}
	t.Notes = append(t.Notes,
		"k-means gets the reference k and k-means++ seeding — still no noise concept and convex cells only",
		"the truth columns score against the generator labels; they confirm the central-reference comparison is not an artifact",
		fmt.Sprintf("DBDC: %d sites, REP_Scor, Eps_global = 2*Eps_local", fig7Sites))
	return t, nil
}
