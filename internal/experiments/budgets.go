package experiments

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// budgetSweep is the per-cluster representative budgets the Pareto table
// walks, from unbudgeted (0) down to one representative per cluster.
var budgetSweep = []int{0, 16, 8, 4, 2, 1}

// Budgets traces the SDBDC bandwidth/quality trade-off (docs/budgets.md):
// for each evaluation data set, re-run DBDC with the per-cluster
// representative budget tightened step by step and record how the uplink
// bytes fall against how the clustering quality (P^I/P^II versus the
// central run) holds up. The paper's claim behind Config.RepBudget is that
// the greedy coverage-maximizing selection trades bytes for quality
// gracefully — a small budget should cut transmission by a large factor
// while staying within a few quality points of the unbudgeted run.
func Budgets(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		ID:    "budgets",
		Title: "SDBDC representative budgets: uplink bytes vs quality",
		Columns: []string{"dataset", "budget", "reps",
			"uplink[B]", "of-unbudgeted", "P^I", "P^II", "coverage"},
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
		baseline := 0
		for _, budget := range budgetSweep {
			res, err := runDBDC(ds, part, dbdc.Config{Local: ds.Params, Model: model.RepScor, EpsGlobal: 2 * ds.Params.Eps, RepBudget: budget})
			if err != nil {
				return nil, err
			}
			uplink, covered, members := 0, 0, 0
			for _, sr := range res.run.Sites {
				uplink += sr.UplinkBytes
				covered += sr.Budget.Covered
				members += sr.Budget.Members
			}
			if budget == 0 {
				baseline = uplink
			}
			pi, pii, err := qualities(res.distributed, central.Labels, ds.Params.MinPts)
			if err != nil {
				return nil, err
			}
			coverage := 1.0
			if members > 0 {
				coverage = float64(covered) / float64(members)
			}
			budgetCell := fmt.Sprintf("%d", budget)
			if budget == 0 {
				budgetCell = "off"
				coverage = 1.0
			}
			t.Rows = append(t.Rows, []string{
				ds.Name,
				budgetCell,
				fmt.Sprintf("%d", res.run.TotalRepresentatives()),
				fmt.Sprintf("%d", uplink),
				pct(float64(uplink) / float64(baseline)),
				pct(pi),
				pct(pii),
				fmt.Sprintf("%.3f", coverage),
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d sites, REP_Scor, Eps_global = 2*Eps_local; budget = max representatives per local cluster", fig7Sites),
		"of-unbudgeted = uplink bytes as % of the budget-off row; coverage = eps-covered member fraction across sites",
	)
	return t, nil
}
