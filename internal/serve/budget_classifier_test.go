package serve

import (
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
)

// buildBudgetedModel runs a two-site round whose sites ship SDBDC-budgeted
// local models (cfg.RepBudget > 0) and returns the training points with
// the resulting global model. The budget changes WHICH representatives
// survive, so the global model differs from the unbudgeted one — the
// parity claim under test is that serving and relabeling still agree on
// whatever model the round produced.
func buildBudgetedModel(t testing.TB, kind model.Kind, budget int, seed int64) ([]geom.Point, *model.GlobalModel) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var pts []geom.Point
	pts = append(pts, data.Blob(rng, geom.Point{0, 0}, 0.3, 140)...)
	pts = append(pts, data.Blob(rng, geom.Point{5, 5}, 0.4, 140)...)
	pts = append(pts, data.Ring(rng, -4, 4, 2, 0.1, 140)...)
	pts = append(pts, data.Uniform(rng, geom.NewRect(geom.Point{-8, -8}, geom.Point{8, 8}), 60)...)
	cfg := dbdc.Config{
		Local:     dbscan.Params{Eps: 0.5, MinPts: 5},
		Model:     kind,
		Index:     index.KindRStar,
		RepBudget: budget,
	}
	half := len(pts) / 2
	o1, err := dbdc.LocalStep("site-1", pts[:half], cfg)
	if err != nil {
		t.Fatalf("LocalStep site-1: %v", err)
	}
	o2, err := dbdc.LocalStep("site-2", pts[half:], cfg)
	if err != nil {
		t.Fatalf("LocalStep site-2: %v", err)
	}
	if budget > 0 && o1.Budget.Dropped() == 0 && o2.Budget.Dropped() == 0 {
		t.Fatalf("budget %d dropped nothing at either site; test is vacuous", budget)
	}
	global, err := dbdc.GlobalStep([]*model.LocalModel{o1.Model, o2.Model}, cfg)
	if err != nil {
		t.Fatalf("GlobalStep: %v", err)
	}
	if global.Empty() {
		t.Fatal("budgeted model is the empty sentinel; pick denser parameters")
	}
	return pts, global
}

// TestClassifierBudgetedModelParity is the serving half of the SDBDC
// budget differential (the wire half lives in internal/transport's
// TestBudgetedRoundE2E): a global model built from budget-truncated local
// models must classify online exactly like dbdc.Relabel labels offline, and
// both like a loop over every representative, for every model kind. Budget
// truncation only removes representatives — it must not open any gap
// between the readers of the shared representative-choice rule.
func TestClassifierBudgetedModelParity(t *testing.T) {
	for _, kind := range model.Kinds() {
		for _, budget := range []int{1, 3} {
			pts, global := buildBudgetedModel(t, kind, budget, 42)
			want, err := dbdc.Relabel(pts, global)
			if err != nil {
				t.Fatalf("%s/b=%d: Relabel: %v", kind, budget, err)
			}
			cls, err := NewClassifier(global)
			if err != nil {
				t.Fatalf("%s/b=%d: NewClassifier: %v", kind, budget, err)
			}
			out := makeLabels(len(pts))
			if err := cls.ClassifyBatch(pts, out); err != nil {
				t.Fatalf("%s/b=%d: ClassifyBatch: %v", kind, budget, err)
			}
			for i, p := range pts {
				if oracle := bruteForceLabel(global, p); out[i] != oracle || want[i] != oracle {
					t.Fatalf("%s/b=%d: point %d: online label %v, relabel %v, brute force %v",
						kind, budget, i, out[i], want[i], oracle)
				}
			}
		}
	}
}
