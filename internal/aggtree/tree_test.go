package aggtree

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

// treeFixture is a partitioned dataset-A run: per-site points and local
// outcomes, ready for flat and tree merges.
type treeFixture struct {
	cfg      dbdc.Config
	outcomes []*dbdc.LocalOutcome
	models   []*model.LocalModel
}

func newTreeFixture(t *testing.T, sites int, seed int64) *treeFixture {
	t.Helper()
	ds := data.DatasetA(2000, seed)
	rng := rand.New(rand.NewSource(seed))
	part, err := data.PartitionRandom(len(ds.Points), sites, rng)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	sitePts := part.Extract(ds.Points)
	f := &treeFixture{cfg: dbdc.Config{Local: ds.Params, EpsGlobal: 2 * ds.Params.Eps}}
	for s := 0; s < sites; s++ {
		o, err := dbdc.LocalStep(fmt.Sprintf("site-%02d", s), sitePts[s], f.cfg)
		if err != nil {
			t.Fatalf("LocalStep site %d: %v", s, err)
		}
		f.outcomes = append(f.outcomes, o)
		f.models = append(f.models, o.Model)
	}
	return f
}

// relabelAll relabels every site outcome against the global model and
// concatenates the labels in site order.
func relabelAll(t *testing.T, outcomes []*dbdc.LocalOutcome, g *model.GlobalModel) cluster.Labeling {
	t.Helper()
	var all cluster.Labeling
	for _, o := range outcomes {
		labels, _, err := dbdc.RelabelSite(o, g)
		if err != nil {
			t.Fatalf("RelabelSite %s: %v", o.SiteID, err)
		}
		all = append(all, labels...)
	}
	return all
}

// samePartition reports whether two labelings induce the same partition:
// noise matches noise, and cluster ids map 1:1 in both directions.
func samePartition(a, b cluster.Labeling) error {
	if len(a) != len(b) {
		return fmt.Errorf("length mismatch: %d vs %d", len(a), len(b))
	}
	fwd := make(map[cluster.ID]cluster.ID)
	back := make(map[cluster.ID]cluster.ID)
	for i := range a {
		if (a[i] == cluster.Noise) != (b[i] == cluster.Noise) {
			return fmt.Errorf("object %d: noise mismatch (%d vs %d)", i, a[i], b[i])
		}
		if a[i] == cluster.Noise {
			continue
		}
		if prev, ok := fwd[a[i]]; ok && prev != b[i] {
			return fmt.Errorf("object %d: cluster %d maps to both %d and %d", i, a[i], prev, b[i])
		}
		if prev, ok := back[b[i]]; ok && prev != a[i] {
			return fmt.Errorf("object %d: cluster %d mapped from both %d and %d", i, b[i], prev, a[i])
		}
		fwd[a[i]] = b[i]
		back[b[i]] = a[i]
	}
	return nil
}

// TestMergeTreeMatchesFlat is the tree-equivalence property: with the
// representative budget off, a 2-level and a 3-level tree over the same
// site partition relabel every object exactly like the flat merge, up to
// cluster-id renaming.
func TestMergeTreeMatchesFlat(t *testing.T) {
	f := newTreeFixture(t, 8, 42)
	flatGlobal, flatStats, err := MergeTree(f.models, len(f.models), f.cfg)
	if err != nil {
		t.Fatalf("flat merge: %v", err)
	}
	if flatStats.Depth != 1 || len(flatStats.Levels) != 0 {
		t.Fatalf("flat merge reported depth %d with %d levels", flatStats.Depth, len(flatStats.Levels))
	}
	flatLabels := relabelAll(t, f.outcomes, flatGlobal)

	for _, tc := range []struct {
		fanIn, depth int
	}{{4, 2}, {2, 3}} {
		global, stats, err := MergeTree(f.models, tc.fanIn, f.cfg)
		if err != nil {
			t.Fatalf("fan-in %d: %v", tc.fanIn, err)
		}
		if stats.Depth != tc.depth {
			t.Errorf("fan-in %d: depth = %d, want %d", tc.fanIn, stats.Depth, tc.depth)
		}
		if got := len(global.Reps); got != len(flatGlobal.Reps) {
			t.Errorf("fan-in %d: root clustered %d reps, flat %d (condensation not lossless)",
				tc.fanIn, got, len(flatGlobal.Reps))
		}
		for _, ls := range stats.Levels {
			if ls.RepsIn != ls.RepsOut {
				t.Errorf("fan-in %d: unbudgeted level dropped reps: in=%d out=%d",
					tc.fanIn, ls.RepsIn, ls.RepsOut)
			}
		}
		labels := relabelAll(t, f.outcomes, global)
		if err := samePartition(labels, flatLabels); err != nil {
			t.Errorf("fan-in %d: tree labels diverge from flat: %v", tc.fanIn, err)
		}
	}
}

// TestMergeTreeBudgetShrinks checks that a per-level budget actually caps
// the uplink (RepsOut < RepsIn) while the tree still produces a valid,
// usable model.
func TestMergeTreeBudgetShrinks(t *testing.T) {
	f := newTreeFixture(t, 8, 43)
	cfg := f.cfg
	cfg.RepBudget = 2
	global, stats, err := MergeTree(f.models, 4, cfg)
	if err != nil {
		t.Fatalf("budgeted merge: %v", err)
	}
	if err := global.Validate(); err != nil {
		t.Fatalf("budgeted tree model invalid: %v", err)
	}
	if len(stats.Levels) != 1 {
		t.Fatalf("expected one interior level, got %d", len(stats.Levels))
	}
	ls := stats.Levels[0]
	if ls.RepsOut >= ls.RepsIn {
		t.Fatalf("budget 2 did not shrink the uplink: in=%d out=%d", ls.RepsIn, ls.RepsOut)
	}
	if stats.RootReps != ls.RepsOut {
		t.Fatalf("root clustered %d reps, level forwarded %d", stats.RootReps, ls.RepsOut)
	}
	labels := relabelAll(t, f.outcomes, global)
	if len(labels) == 0 {
		t.Fatal("no labels")
	}
}

// noiseModel builds an all-noise site outcome (no dense region, zero
// representatives).
func noiseModel(t *testing.T, id string, cfg dbdc.Config, rng *rand.Rand) *dbdc.LocalOutcome {
	t.Helper()
	var pts []geom.Point
	for i := 0; i < 40; i++ {
		pts = append(pts, geom.Point{rng.Float64() * 1e4, rng.Float64() * 1e4})
	}
	o, err := dbdc.LocalStep(id, pts, cfg)
	if err != nil {
		t.Fatalf("LocalStep %s: %v", id, err)
	}
	if len(o.Model.Reps) != 0 {
		t.Fatalf("noise site %s produced %d reps", id, len(o.Model.Reps))
	}
	return o
}

// TestMergeTreeAllNoiseRegion is the interior-node half of the all-noise
// regression: a region whose every site found only noise must not error the
// parent merge — its empty condensed model is skipped and the good regions
// carry the round.
func TestMergeTreeAllNoiseRegion(t *testing.T) {
	f := newTreeFixture(t, 2, 44)
	cfg := f.cfg
	rng := rand.New(rand.NewSource(7))
	models := []*model.LocalModel{
		f.models[0], f.models[1],
		noiseModel(t, "noise-00", cfg, rng).Model,
		noiseModel(t, "noise-01", cfg, rng).Model,
	}
	// fan-in 2 groups contiguously: [good good] [noise noise].
	global, stats, err := MergeTree(models, 2, cfg)
	if err != nil {
		t.Fatalf("merge with an all-noise region: %v", err)
	}
	if stats.Depth != 2 {
		t.Fatalf("depth = %d, want 2", stats.Depth)
	}
	if global.Empty() {
		t.Fatal("good region was lost to the all-noise region")
	}
	flat, _, err := MergeTree(f.models, 2+len(models), cfg)
	if err != nil {
		t.Fatalf("flat merge: %v", err)
	}
	if len(global.Reps) != len(flat.Reps) || global.NumClusters != flat.NumClusters {
		t.Fatalf("tree with noise region: %d reps %d clusters, flat over good sites: %d reps %d clusters",
			len(global.Reps), global.NumClusters, len(flat.Reps), flat.NumClusters)
	}
}

// TestMergeTreeAllNoise: when every site in the tree found only noise the
// root must reproduce the flat empty sentinel, not an error.
func TestMergeTreeAllNoise(t *testing.T) {
	cfg := dbdc.Config{Local: dbscan.Params{Eps: 1.5, MinPts: 4}}
	rng := rand.New(rand.NewSource(8))
	var models []*model.LocalModel
	for i := 0; i < 4; i++ {
		models = append(models, noiseModel(t, fmt.Sprintf("noise-%02d", i), cfg, rng).Model)
	}
	global, stats, err := MergeTree(models, 2, cfg)
	if err != nil {
		t.Fatalf("all-noise tree errored: %v", err)
	}
	if !global.Empty() {
		t.Fatalf("all-noise tree did not produce the empty sentinel: %+v", global)
	}
	if stats.Depth != 2 {
		t.Fatalf("depth = %d, want 2", stats.Depth)
	}
}

// TestMergeTreeArgs covers the argument contract.
func TestMergeTreeArgs(t *testing.T) {
	f := newTreeFixture(t, 2, 45)
	if _, _, err := MergeTree(f.models, 1, f.cfg); err == nil {
		t.Error("fan-in 1 accepted")
	}
	if _, _, err := MergeTree(nil, 2, f.cfg); err == nil {
		t.Error("empty model list accepted")
	}
	negative := f.cfg
	negative.RepBudget = -1
	if _, _, err := MergeTree(f.models, 2, negative); err == nil {
		t.Error("negative budget accepted")
	}
}
