package aggtree

import (
	"fmt"
	"time"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// This file is the in-process mirror of the networked tree: the same
// merge-condense-merge pipeline (regional dbdc.GlobalStep →
// dbdc.CondenseGlobal → parent GlobalStep) run directly over a slice of
// local models, with no sockets. The experiments harness uses it to measure
// hierarchy quality (P^II of tree vs flat) and cost without transport
// noise, and the e2e tests use it as the reference the networked tree must
// agree with.

// LevelStats is the cost and compression accounting of one aggregation
// level of an in-process tree run.
type LevelStats struct {
	// Regions is the number of interior nodes at this level; FanIn the
	// size of each region (in child models).
	Regions int
	FanIn   []int
	// RepsIn is the summed representative count entering the level's
	// regional merges, RepsOut the count forwarded upward after
	// condensation (they differ only under a representative budget).
	RepsIn, RepsOut int
	// GlobalStep and Condense are the level's summed phase costs.
	GlobalStep time.Duration
	Condense   time.Duration
}

// TreeStats describes an in-process tree run level by level.
type TreeStats struct {
	// Depth is the number of GlobalStep layers, root included: 1 is the
	// flat topology, 2 one layer of leaf aggregators, and so on.
	Depth int
	// Levels holds the per-level accounting for the interior levels, in
	// bottom-up order (empty for a flat run).
	Levels []LevelStats
	// RootGlobalStep is the root merge cost, RootReps the representative
	// count it clustered.
	RootGlobalStep time.Duration
	RootReps       int
}

// MergeTree runs the DBDC global step as an aggregation tree over the given
// local models: the models are grouped into contiguous regions of fanIn,
// each region is merged (GlobalStep) and condensed back into one local
// model (CondenseGlobal, capped per regional cluster by cfg.RepBudget when
// positive), and the condensed models recurse upward until at most fanIn
// remain for the root merge. fanIn < 2 or fewer than one model is an error;
// len(models) ≤ fanIn degenerates to the flat dbdc.GlobalStep (depth 1).
//
// With cfg.RepBudget 0 the condensation is lossless — every level forwards
// the representatives it merged, unchanged — so the root clusters exactly
// the union of the original site representatives and the tree result equals
// the flat run up to cluster-id renaming. An all-noise region condenses to a
// representative-free model and degrades the parent merge instead of
// failing it; a tree whose every site is noise returns the flat empty
// sentinel.
func MergeTree(models []*model.LocalModel, fanIn int, cfg dbdc.Config) (*model.GlobalModel, *TreeStats, error) {
	if fanIn < 2 {
		return nil, nil, fmt.Errorf("aggtree: fan-in %d < 2", fanIn)
	}
	if len(models) == 0 {
		return nil, nil, fmt.Errorf("aggtree: no local models")
	}

	stats := &TreeStats{Depth: 1}
	level := models
	for lvl := 1; len(level) > fanIn; lvl++ {
		regions := (len(level) + fanIn - 1) / fanIn
		ls := LevelStats{Regions: regions}
		next := make([]*model.LocalModel, 0, regions)
		for i := 0; i < regions; i++ {
			lo := i * fanIn
			hi := min(lo+fanIn, len(level))
			region := level[lo:hi]
			ls.FanIn = append(ls.FanIn, len(region))
			objects := 0
			for _, m := range region {
				ls.RepsIn += len(m.Reps)
				objects += m.NumObjects
			}
			gsStart := time.Now()
			regional, err := dbdc.GlobalStep(region, cfg)
			ls.GlobalStep += time.Since(gsStart)
			if err != nil {
				return nil, nil, fmt.Errorf("aggtree: level %d region %d: %w", lvl, i, err)
			}
			condStart := time.Now()
			outcome, err := dbdc.CondenseGlobal(fmt.Sprintf("agg-l%d-r%d", lvl, i), regional, cfg)
			ls.Condense += time.Since(condStart)
			if err != nil {
				return nil, nil, fmt.Errorf("aggtree: level %d region %d: %w", lvl, i, err)
			}
			outcome.SetNumObjects(objects)
			ls.RepsOut += len(outcome.Model.Reps)
			next = append(next, outcome.Model)
		}
		stats.Levels = append(stats.Levels, ls)
		stats.Depth++
		level = next
	}
	for _, m := range level {
		stats.RootReps += len(m.Reps)
	}
	rootStart := time.Now()
	global, err := dbdc.GlobalStep(level, cfg)
	stats.RootGlobalStep = time.Since(rootStart)
	if err != nil {
		return nil, nil, fmt.Errorf("aggtree: root merge: %w", err)
	}
	return global, stats, nil
}
