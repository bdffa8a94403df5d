package dbdc

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/model"
)

// TestRepBudgetZeroIsIdentity: Config.RepBudget = 0 must produce a local
// model byte-identical on the wire to a config without the knob — the
// backward-compatibility precondition of the whole budget feature.
func TestRepBudgetZeroIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := append(blob(rng, 0, 0, 0.3, 150), blob(rng, 8, 0, 0.3, 150)...)
	for _, kind := range []model.Kind{model.RepScor, model.RepKMeans} {
		cfg := defaultCfg()
		cfg.Model = kind
		base, err := LocalStep("s1", pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.RepBudget = 0
		budgeted, err := LocalStep("s1", pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := base.Model.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		b, err := budgeted.Model.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: RepBudget=0 model differs from unbudgeted on the wire", kind)
		}
		if budgeted.Budget != (base.Budget) || budgeted.Budget.Selected != 0 {
			t.Fatalf("%s: unbudgeted outcome carries budget stats %+v", kind, budgeted.Budget)
		}
	}
}

// TestRepBudgetFlowsThroughLocalStep: a binding budget must shrink the
// model, populate the outcome's accounting, and keep the model valid.
func TestRepBudgetFlowsThroughLocalStep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := append(blob(rng, 0, 0, 0.35, 200), blob(rng, 9, 1, 0.35, 200)...)
	cfg := defaultCfg()
	full, err := LocalStep("s1", pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxScor := 0
	for _, scor := range full.Clustering.Scor {
		maxScor = max(maxScor, len(scor))
	}
	if maxScor < 3 {
		t.Fatalf("dataset too easy: max Scor %d", maxScor)
	}
	cfg.RepBudget = 2
	out, err := LocalStep("s1", pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Model.Validate(); err != nil {
		t.Fatalf("budgeted model invalid: %v", err)
	}
	if len(out.Model.Reps) >= len(full.Model.Reps) {
		t.Fatalf("budget 2 did not shrink the model: %d vs %d reps",
			len(out.Model.Reps), len(full.Model.Reps))
	}
	if len(out.Model.Reps) > 2*out.Model.NumClusters {
		t.Fatalf("budget 2 shipped %d reps over %d clusters", len(out.Model.Reps), out.Model.NumClusters)
	}
	if out.RepBudget != 2 || out.Budget.Budget != 2 {
		t.Fatalf("budget not recorded: RepBudget=%d stats=%+v", out.RepBudget, out.Budget)
	}
	if out.Budget.Dropped() <= 0 {
		t.Fatalf("binding budget dropped nothing: %+v", out.Budget)
	}
	if f := out.Budget.CoverageFraction(); f <= 0 || f > 1 {
		t.Fatalf("coverage fraction %f out of range", f)
	}
	if out.Model.EncodedSize() >= full.Model.EncodedSize() {
		t.Fatalf("budgeted model not smaller on the wire: %d vs %d bytes",
			out.Model.EncodedSize(), full.Model.EncodedSize())
	}
}

// TestBudgetedModelRenegotiation pins the transport-facing re-condensation
// hook: same budget returns the cached model, a different budget rebuilds
// without mutating the outcome, budget 0 recovers the unbudgeted model, and
// an outcome built unbudgeted, which keeps no ranking, refuses a budget.
func TestBudgetedModelRenegotiation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := append(blob(rng, 0, 0, 0.35, 180), blob(rng, 9, 1, 0.35, 180)...)
	cfg := defaultCfg()
	cfg.RepBudget = 4
	out, err := LocalStep("s1", pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same, stats, err := out.BudgetedModel(4)
	if err != nil {
		t.Fatal(err)
	}
	if same != out.Model || stats != out.Budget {
		t.Fatal("BudgetedModel(current budget) did not return the cached model")
	}
	smaller, sstats, err := out.BudgetedModel(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(smaller.Reps) >= len(out.Model.Reps) {
		t.Fatalf("budget 1 not smaller than budget 4: %d vs %d", len(smaller.Reps), len(out.Model.Reps))
	}
	if sstats.Budget != 1 {
		t.Fatalf("stats budget = %d, want 1", sstats.Budget)
	}
	if out.RepBudget != 4 || out.Budget.Budget != 4 {
		t.Fatalf("renegotiation mutated the outcome: %+v", out.Budget)
	}
	unbudgeted, _, err := out.BudgetedModel(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RepBudget = 0
	want, err := LocalStep("s1", pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := unbudgeted.MarshalBinary()
	b, _ := want.Model.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("BudgetedModel(0) differs from an unbudgeted LocalStep")
	}
	if _, _, err := out.BudgetedModel(-1); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, _, err := want.BudgetedModel(1); err == nil {
		t.Fatal("an outcome built unbudgeted accepted budget 1")
	}
	if m, _, err := want.BudgetedModel(0); err != nil || m != want.Model {
		t.Fatalf("an outcome built unbudgeted did not return its model at budget 0: %v", err)
	}
}

// TestRunWithRepBudget: the in-process orchestrator threads the budget to
// every site, records the accounting in the site results, and still yields
// a consistent global labeling.
func TestRunWithRepBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sites := []Site{
		{ID: "a", Points: append(blob(rng, 0, 0, 0.35, 150), blob(rng, 8, 0, 0.35, 150)...)},
		{ID: "b", Points: append(blob(rng, 0, 0.5, 0.35, 150), blob(rng, 8, 0.5, 0.35, 150)...)},
	}
	cfg := defaultCfg()
	full, err := Run(sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RepBudget = 3
	res, err := Run(sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id, sr := range res.Sites {
		if sr.Budget.Budget != 3 {
			t.Fatalf("site %s: budget stats not recorded: %+v", id, sr.Budget)
		}
		if sr.UplinkBytes >= full.Sites[id].UplinkBytes {
			t.Fatalf("site %s: budgeted uplink %d not below unbudgeted %d",
				id, sr.UplinkBytes, full.Sites[id].UplinkBytes)
		}
		if len(sr.Labels) != len(sites[0].Points) {
			t.Fatalf("site %s: %d labels for %d points", id, len(sr.Labels), len(sites[0].Points))
		}
	}
	if res.TotalRepresentatives() >= full.TotalRepresentatives() {
		t.Fatalf("budget 3 did not reduce representatives: %d vs %d",
			res.TotalRepresentatives(), full.TotalRepresentatives())
	}
	if res.Global.NumClusters < 1 {
		t.Fatal("budgeted run produced no global clusters")
	}
}
