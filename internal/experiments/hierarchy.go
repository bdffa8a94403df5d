package experiments

import (
	"fmt"
	"time"

	"github.com/dbdc-go/dbdc/internal/aggtree"
	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/quality"
)

// hierarchySites is the site count of the hierarchy table: enough to give a
// 3-level tree at fan-in 2 a real interior level (8 → 4 → 2 → root).
const hierarchySites = 8

// Hierarchy measures what the aggregation tree (internal/aggtree,
// docs/hierarchy.md) costs in quality: the same dataset-A site partition is
// merged flat (every site model straight to the root, the paper's topology)
// and through trees of increasing depth, with and without a per-level
// representative budget. For every topology the table reports P^II both
// against the central reference clustering and against the flat run — the
// latter is the price of the tree itself. With budget off, condensation is
// lossless and the tree must agree with the flat run exactly (P^II vs flat
// = 100); budgets trade that equivalence for a bounded uplink per level.
func Hierarchy(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		ID:    "hierarchy",
		Title: "Aggregation tree: depth and per-level budgets vs quality",
		Columns: []string{"topology", "depth", "budget", "root-reps",
			"P^II-vs-central", "P^II-vs-flat", "merge[ms]"},
	}
	ds := data.DatasetA(opt.scaled(data.DatasetASize), opt.Seed)
	central, _, err := runCentral(ds)
	if err != nil {
		return nil, err
	}

	part, err := randomPartition(ds, hierarchySites, opt)
	if err != nil {
		return nil, err
	}
	sitePts := part.Extract(ds.Points)
	cfg := dbdc.Config{
		Local:     ds.Params,
		Model:     model.RepScor,
		EpsGlobal: 2 * ds.Params.Eps,
	}
	outcomes := make([]*dbdc.LocalOutcome, hierarchySites)
	models := make([]*model.LocalModel, hierarchySites)
	for s := range outcomes {
		o, err := dbdc.LocalStep(fmt.Sprintf("site-%02d", s), sitePts[s], cfg)
		if err != nil {
			return nil, err
		}
		outcomes[s] = o
		models[s] = o.Model
	}

	runs := []struct {
		name   string
		fanIn  int
		budget int
	}{
		{"flat", hierarchySites, 0},
		{"2-level fan-in 4", 4, 0},
		{"3-level fan-in 2", 2, 0},
		{"2-level fan-in 4", 4, 4},
		{"3-level fan-in 2", 2, 4},
	}
	var flat cluster.Labeling
	for _, r := range runs {
		runCfg := cfg
		runCfg.RepBudget = r.budget
		start := time.Now()
		global, stats, err := aggtree.MergeTree(models, r.fanIn, runCfg)
		mergeTime := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("experiments: hierarchy %s: %w", r.name, err)
		}
		perSite := make([][]cluster.ID, hierarchySites)
		for s, o := range outcomes {
			labels, _, err := dbdc.RelabelSite(o, global)
			if err != nil {
				return nil, err
			}
			perSite[s] = labels
		}
		distributed, err := data.Assemble(part, perSite, len(ds.Points))
		if err != nil {
			return nil, err
		}
		if flat == nil {
			flat = distributed
		}
		piiCentral, err := quality.QDBDCPII(distributed, central.Labels)
		if err != nil {
			return nil, err
		}
		piiFlat, err := quality.QDBDCPII(distributed, flat)
		if err != nil {
			return nil, err
		}
		budgetCell := "off"
		if r.budget > 0 {
			budgetCell = fmt.Sprintf("%d", r.budget)
		}
		t.Rows = append(t.Rows, []string{
			r.name,
			fmt.Sprintf("%d", stats.Depth),
			budgetCell,
			fmt.Sprintf("%d", stats.RootReps),
			pct(piiCentral),
			pct(piiFlat),
			ms(mergeTime),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("dataset A, %d sites, REP_Scor, Eps_global = 2*Eps_local at every level; budget = representatives per regional cluster forwarded upward", hierarchySites),
		"P^II-vs-flat isolates the cost of the tree topology itself; 100.0 with budget off = lossless condensation",
	)
	return t, nil
}
