package serve

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

func makeLabels(n int) []cluster.ID { return make([]cluster.ID, n) }

func nan() float64 { return math.NaN() }
func inf() float64 { return math.Inf(1) }

// buildTestModel runs a full two-site DBDC round in-process and returns
// the training points together with the resulting global model — the
// exact artifact a production server would publish into the registry.
func buildTestModel(t testing.TB, kind model.Kind, seed int64) ([]geom.Point, *model.GlobalModel) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := geom.NewStore(2, 0)
	data.AppendBlob(st, rng, geom.Point{0, 0}, 0.3, 140)
	data.AppendBlob(st, rng, geom.Point{5, 5}, 0.4, 140)
	data.AppendRing(st, rng, -4, 4, 2, 0.1, 140)
	data.AppendUniform(st, rng, geom.NewRect(geom.Point{-8, -8}, geom.Point{8, 8}), 60)
	pts := st.Views()
	cfg := dbdc.Config{
		Local: dbscan.Params{Eps: 0.5, MinPts: 5},
		Model: kind,
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
	global, err := dbdc.GlobalStep([]*model.LocalModel{o1.Model, o2.Model}, cfg)
	if err != nil {
		t.Fatalf("GlobalStep: %v", err)
	}
	if global.Empty() {
		t.Fatal("test model is the empty sentinel; pick denser parameters")
	}
	return pts, global
}

// bruteForceLabel is the Section 7 rule as a loop over every representative
// of the model: r covers p iff d² ≤ ε_r², the nearest covering r wins and
// exact ties go to the lowest index. It is the oracle the classifier's
// coverage grid is held to.
func bruteForceLabel(global *model.GlobalModel, p geom.Point) cluster.ID {
	best, bestSq := cluster.Noise, math.Inf(1)
	for _, r := range global.Reps {
		if d2 := (geom.Euclidean{}).DistanceSq(p, r.Point); d2 <= r.Eps*r.Eps && d2 < bestSq {
			best, bestSq = r.GlobalCluster, d2
		}
	}
	return best
}

// TestClassifierDifferential is the drift guard of the shared
// representative-choice rule: classifying the training points online must
// be label-identical to dbdc.Relabel, and both to a loop over every
// representative, for both local model kinds.
func TestClassifierDifferential(t *testing.T) {
	for _, kind := range model.Kinds() {
		pts, global := buildTestModel(t, kind, 42)
		want, err := dbdc.Relabel(pts, global)
		if err != nil {
			t.Fatalf("%s: Relabel: %v", kind, err)
		}
		cls, err := NewClassifier(global)
		if err != nil {
			t.Fatalf("%s: NewClassifier: %v", kind, err)
		}
		// Batch path.
		out := makeLabels(len(pts))
		if err := cls.ClassifyBatch(pts, out); err != nil {
			t.Fatalf("%s: ClassifyBatch: %v", kind, err)
		}
		for i, p := range pts {
			if oracle := bruteForceLabel(global, p); out[i] != oracle || want[i] != oracle {
				t.Fatalf("%s: point %d: online label %v, relabel %v, brute force %v",
					kind, i, out[i], want[i], oracle)
			}
		}
		// Single-point path must agree with the batch path.
		for _, i := range []int{0, len(pts) / 3, len(pts) - 1} {
			id, err := cls.Classify(pts[i])
			if err != nil {
				t.Fatalf("%s: Classify(%d): %v", kind, i, err)
			}
			if id != want[i] {
				t.Fatalf("%s: point %d: Classify %v != relabel %v", kind, i, id, want[i])
			}
		}
	}
}

// TestClassifierEmptySentinel: the all-noise sentinel classifies
// everything as noise, at any dimensionality, without errors.
func TestClassifierEmptySentinel(t *testing.T) {
	cls, err := NewClassifier(&model.GlobalModel{MinPtsGlobal: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []geom.Point{{0}, {1, 2}, {1, 2, 3}} {
		id, err := cls.Classify(p)
		if err != nil {
			t.Fatalf("sentinel Classify(%v): %v", p, err)
		}
		if !id.IsNoise() {
			t.Fatalf("sentinel labelled %v as %v", p, id)
		}
	}
}

// TestClassifierRejectsBadPoints: network input never reaches the
// distance kernels — wrong dimensionality, NaN coordinates and empty
// points fail loudly, and a bad point fails its whole batch atomically.
func TestClassifierRejectsBadPoints(t *testing.T) {
	_, global := buildTestModel(t, model.RepScor, 42)
	cls, err := NewClassifier(global)
	if err != nil {
		t.Fatal(err)
	}
	bad := []geom.Point{
		{1, 2, 3},  // wrong dimension
		{},         // no coordinates
		{nan(), 0}, // NaN
		{0, inf()}, // Inf
	}
	for _, p := range bad {
		if _, err := cls.Classify(p); err == nil {
			t.Errorf("Classify accepted bad point %v", p)
		}
	}
	// All-or-nothing batch: one bad point rejects the batch.
	batch := []geom.Point{{0, 0}, {1, 2, 3}}
	if err := cls.ClassifyBatch(batch, makeLabels(2)); err == nil {
		t.Error("ClassifyBatch accepted a batch with a wrong-dimension point")
	}
	if err := cls.ClassifyBatch(batch[:1], makeLabels(2)); err == nil {
		t.Error("ClassifyBatch accepted mismatched output length")
	}
}
