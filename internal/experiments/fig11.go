package experiments

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// Fig11 reproduces Figure 11: quality for the three data sets A, B and C,
// both local models, both object quality functions, at 4 sites and
// Eps_global = 2·Eps_local. The paper's finding: DBDC scores high on all
// three; on the very noisy data set B the finer-grained P^II reports a
// visibly lower value than P^I, matching an experienced user's intuition.
func Fig11(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		ID:    "fig11",
		Title: "quality for data sets A, B and C",
		Columns: []string{"dataset", "n",
			"P^I(kmeans)", "P^II(kmeans)", "P^I(scor)", "P^II(scor)"},
	}
	datasets := []data.Dataset{
		data.DatasetA(opt.scaled(data.DatasetASize), opt.Seed),
		data.DatasetB(opt.Seed),
		data.DatasetC(opt.Seed),
	}
	for _, ds := range datasets {
		central, _, err := runCentral(ds)
		if err != nil {
			return nil, err
		}
		part, err := randomPartition(ds, fig7Sites, opt)
		if err != nil {
			return nil, err
		}
		row := []string{ds.Name, fmt.Sprintf("%d", len(ds.Points))}
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
		}
		row = append(row,
			cells[model.RepKMeans][0], cells[model.RepKMeans][1],
			cells[model.RepScor][0], cells[model.RepScor][1])
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d sites, Eps_global = 2*Eps_local, qp = MinPts per dataset", fig7Sites),
		"paper: high quality on all three; on noisy B, P^II < P^I")
	return t, nil
}

// All runs every experiment in paper order, plus the transmission-cost
// extension table.
func All(opt Options) ([]*Table, error) {
	runs := []func(Options) (*Table, error){Fig7a, Fig7b, Fig8, Fig9, Fig10, Fig11, Transmission, Budgets, Hierarchy, Baselines, Comparison, Dimensions, OpticsSweep, Partitions, Incremental}
	tables := make([]*Table, 0, len(runs))
	for _, run := range runs {
		t, err := run(opt)
		if err != nil {
			return tables, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// ByID returns the experiment runner with the given table id.
func ByID(id string) (func(Options) (*Table, error), error) {
	switch id {
	case "fig7a":
		return Fig7a, nil
	case "fig7b":
		return Fig7b, nil
	case "fig8":
		return Fig8, nil
	case "fig9":
		return Fig9, nil
	case "fig10":
		return Fig10, nil
	case "fig11":
		return Fig11, nil
	case "transmission":
		return Transmission, nil
	case "budgets":
		return Budgets, nil
	case "hierarchy":
		return Hierarchy, nil
	case "baselines":
		return Baselines, nil
	case "comparison":
		return Comparison, nil
	case "dimensions":
		return Dimensions, nil
	case "optics-sweep":
		return OpticsSweep, nil
	case "partitions":
		return Partitions, nil
	case "incremental":
		return Incremental, nil
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (have fig7a fig7b fig8 fig9 fig10 fig11 transmission budgets hierarchy baselines comparison dimensions optics-sweep partitions incremental)", id)
	}
}
