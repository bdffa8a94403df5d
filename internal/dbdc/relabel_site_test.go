package dbdc

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
)

// checkRelabelPaths holds the three ways to relabel a site to each other,
// label for label: RelabelSite (by leaf or by representative over the retained
// index, when the outcome has one), Relabel (per object) and
// RepSelector.Select (the serving path).
func checkRelabelPaths(t *testing.T, name string, o *LocalOutcome, global *model.GlobalModel) cluster.Labeling {
	t.Helper()
	got, _, err := RelabelSite(o, global)
	if err != nil {
		t.Fatalf("%s: RelabelSite: %v", name, err)
	}
	want, err := Relabel(o.Points, global)
	if err != nil {
		t.Fatalf("%s: Relabel: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: object %d: RelabelSite says %v, Relabel %v", name, i, got[i], want[i])
			}
		}
		t.Fatalf("%s: RelabelSite returned %d labels, Relabel %d", name, len(got), len(want))
	}
	sel, err := NewRepSelector(global)
	if err != nil {
		t.Fatalf("%s: NewRepSelector: %v", name, err)
	}
	for i, p := range o.Points {
		id, err := sel.Select(p)
		if err != nil {
			t.Fatalf("%s: Select(%d): %v", name, i, err)
		}
		if id != got[i] {
			t.Fatalf("%s: object %d: RelabelSite says %v, RepSelector.Select %v", name, i, got[i], id)
		}
	}
	return got
}

// roundOutcomes runs steps 1–3 over a two-site round-robin split of pts.
func roundOutcomes(t testing.TB, pts []geom.Point, cfg Config) ([]*LocalOutcome, *model.GlobalModel) {
	t.Helper()
	part, err := data.PartitionRoundRobin(len(pts), 2)
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []*LocalOutcome
	var models []*model.LocalModel
	for s, sitePts := range part.Extract(pts) {
		o, err := LocalStep(fmt.Sprintf("site-%d", s), sitePts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if index.StoreOf(o.idx) == nil {
			t.Fatalf("LocalStep kept no store-backed index (%s): the rep-driven path is not under test", cfg.Index)
		}
		outcomes = append(outcomes, o)
		models = append(models, o.Model)
	}
	global, err := GlobalStep(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return outcomes, global
}

// TestRelabelSiteMatchesPerPoint pins the batch relabel to the per-point
// rule on data sets A, B and C for all five site index kinds, on budgeted
// REP_kMeans models whose ε_r spread wide, on a condensed outcome, without a
// retained index, on the models the per-point path treats specially, and on
// the rows that tell the leaf-wise resolution from it (relabelByLeafRows).
func TestRelabelSiteMatchesPerPoint(t *testing.T) {
	for _, ds := range data.ABC(1) {
		for _, kind := range index.Kinds() {
			if kind == index.KindLinear && ds.Name == "A" && testing.Short() {
				continue // the linear site index pays |reps| full scans
			}
			for _, budget := range []int{0, 4, 16} {
				name := fmt.Sprintf("%s/%s/budget=%d", ds.Name, kind, budget)
				cfg := Config{Local: ds.Params, Index: kind, RepBudget: budget}
				if budget > 0 {
					// A budget alone leaves every ε_r in [Eps, 2·Eps]; a few
					// k-means centroids answering for whole clusters is what
					// spreads the radii.
					cfg.Model = model.RepKMeans
				}
				outcomes, global := roundOutcomes(t, ds.Points, cfg)
				adopted := 0
				for _, o := range outcomes {
					labels := checkRelabelPaths(t, name+"/"+o.SiteID, o, global)
					for _, l := range labels {
						if l != cluster.Noise {
							adopted++
						}
					}
					without := *o
					without.idx = nil
					checkRelabelPaths(t, name+"/"+o.SiteID+"/no-index", &without, global)
				}
				if adopted == 0 {
					t.Fatalf("%s: every object is noise; the comparison is vacuous", name)
				}
				if budget == 4 {
					lo, hi := math.Inf(1), 0.0
					for _, r := range global.Reps {
						lo, hi = math.Min(lo, r.Eps), math.Max(hi, r.Eps)
					}
					if hi < 1.5*lo || hi < 2*ds.Params.Eps {
						t.Fatalf("%s: ε_r spans only %.3g–%.3g at Eps %.3g; the budgeted case wants a wide spread", name, lo, hi, ds.Params.Eps)
					}
				}
			}
		}
	}

	ds := data.DatasetC(1)
	cfg := Config{Local: ds.Params}
	outcomes, global := roundOutcomes(t, ds.Points, cfg)
	site := outcomes[0]

	// An aggregator's condensed outcome clusters representatives and holds
	// no index; it is relabeled against its parent's model object by object.
	agg, err := CondenseGlobal("agg", global, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg.idx != nil {
		t.Fatal("a condensed outcome retained an index")
	}
	parent, err := GlobalStep([]*model.LocalModel{agg.Model}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkRelabelPaths(t, "condensed", agg, parent)

	// The empty model: every object noise, no error.
	labels := checkRelabelPaths(t, "empty-model", site, &model.GlobalModel{MinPtsGlobal: 2})
	for i, l := range labels {
		if l != cluster.Noise {
			t.Fatalf("empty model: object %d labelled %v", i, l)
		}
	}

	// Radii Validate would refuse still mean what the per-point rule makes
	// of them.
	for _, eps := range []float64{math.NaN(), -1, 0, math.Inf(1)} {
		hostile := *global
		hostile.Reps = append([]model.GlobalRepresentative(nil), global.Reps...)
		hostile.Reps[len(hostile.Reps)/2].Eps = eps
		checkRelabelPaths(t, fmt.Sprintf("eps_r=%v", eps), site, &hostile)
	}

	// Representatives of mixed dimensionality: the per-point error, word for
	// word, and no labeling.
	mixed := *global
	mixed.Reps = append(append([]model.GlobalRepresentative(nil), global.Reps...), model.GlobalRepresentative{
		Representative: model.Representative{Point: geom.Point{1, 2, 3}, Eps: 1},
		SiteID:         "site-0",
	})
	_, wantErr := Relabel(site.Points, &mixed)
	gotLabels, _, gotErr := RelabelSite(site, &mixed)
	if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("mixed dimensions: RelabelSite error %v, Relabel error %v", gotErr, wantErr)
	}
	if want := fmt.Sprintf("relabel: indexing %d global representatives: representative %d has dimension 3",
		len(mixed.Reps), len(mixed.Reps)-1); !strings.Contains(gotErr.Error(), want) {
		t.Fatalf("mixed dimensions: error %q does not name the representative (%q)", gotErr, want)
	}
	if gotLabels != nil {
		t.Fatalf("mixed dimensions: failed RelabelSite still returned a labeling")
	}

	relabelByLeafRows(t)
}
