package experiments

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// Fig10 reproduces the table of Figure 10: Q_DBDC dependent on the number
// of client sites for both local models and both object quality functions
// on data set A with Eps_global = 2·Eps_local, plus the share of local
// representatives (the paper reports 16-17%). Expected shape: P^I stays at
// 98-99 throughout (again showing its insensitivity); P^II is high with a
// mild decline as the site count grows.
func Fig10(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	ds := data.DatasetA(opt.scaled(data.DatasetASize), opt.Seed)
	central, _, err := runCentral(ds)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig10",
		Title: "quality vs number of sites (dataset A, Eps_global = 2*Eps_local)",
		Columns: []string{"sites", "local repr.[%]",
			"P^I(kmeans)", "P^II(kmeans)", "P^I(scor)", "P^II(scor)"},
	}
	for _, sites := range []int{2, 4, 5, 8, 10, 14, 20} {
		part, err := randomPartition(ds, sites, opt)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", sites)}
		var repPct string
		cells := map[model.Kind][2]string{}
		for _, kind := range []model.Kind{model.RepKMeans, model.RepScor} {
			res, err := runDBDC(ds, part, dbdc.Config{Local: ds.Params, Model: kind, EpsGlobal: 2 * ds.Params.Eps})
			if err != nil {
				return nil, err
			}
			pi, pii, err := qualities(res.distributed, central.Labels, ds.Params.MinPts)
			if err != nil {
				return nil, err
			}
			cells[kind] = [2]string{pct(pi), pct(pii)}
			repPct = pct(res.repFraction) // same count for both models
		}
		row = append(row, repPct,
			cells[model.RepKMeans][0], cells[model.RepKMeans][1],
			cells[model.RepScor][0], cells[model.RepScor][1])
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("qp = MinPts = %d; paper reports repr. 16-17%%, P^I ~98-99 flat, P^II high and mildly declining", ds.Params.MinPts))
	return t, nil
}
