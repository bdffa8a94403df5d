package dbdc

import (
	"strings"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

// TestRelabelMixedDimensionReps: a global model whose representatives mix
// dimensionalities is broken, and relabeling under it is an error, never an
// all-noise labeling — which would be indistinguishable from "no object is
// covered".
func TestRelabelMixedDimensionReps(t *testing.T) {
	global := &model.GlobalModel{
		EpsGlobal: 1, MinPtsGlobal: 2, NumClusters: 2,
		Reps: []model.GlobalRepresentative{
			{Representative: model.Representative{Point: geom.Point{0, 0}, Eps: 1, LocalCluster: 0}, SiteID: "a", GlobalCluster: 1},
			{Representative: model.Representative{Point: geom.Point{1, 2, 3}, Eps: 1, LocalCluster: 0}, SiteID: "b", GlobalCluster: 2},
		},
	}
	// The queried point sits well inside the first representative's
	// ε-range, so an all-noise answer would be silently wrong.
	labels, err := Relabel([]geom.Point{{0.1, 0}}, global)
	if err == nil {
		t.Fatalf("mixed-dimension representatives produced no error (labels = %v)", labels)
	}
	if !strings.Contains(err.Error(), "relabel") {
		t.Errorf("error does not identify the relabel step: %v", err)
	}
	if labels != nil {
		t.Errorf("failed relabel still returned a labeling: %v", labels)
	}
}

// TestGlobalStepAllNoiseSentinel: a round where every site found only noise
// has no representatives to cluster. GlobalStep historically fabricated
// EpsGlobal = Eps_local for this case ("any positive value validates") —
// a radius no clustering ever used. It must return the documented empty
// sentinel instead: EpsGlobal 0, no representatives, zero clusters.
func TestGlobalStepAllNoiseSentinel(t *testing.T) {
	m := &model.LocalModel{
		SiteID: "s1", Kind: model.RepScor, EpsLocal: 0.5, MinPts: 5,
		NumObjects: 3, NumClusters: 0,
	}
	g, err := GlobalStep([]*model.LocalModel{m}, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !g.Empty() {
		t.Fatalf("all-noise round produced a non-empty global model: %+v", g)
	}
	if g.EpsGlobal != 0 {
		t.Fatalf("all-noise sentinel fabricated EpsGlobal %v, want 0", g.EpsGlobal)
	}
	if g.NumClusters != 0 || len(g.Reps) != 0 {
		t.Fatalf("sentinel carries clusters: %+v", g)
	}
	// The sentinel is a first-class wire citizen: it validates, survives
	// the binary round trip and relabels every object to noise.
	if err := g.Validate(); err != nil {
		t.Fatalf("sentinel rejected by Validate: %v", err)
	}
	b, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g2 model.GlobalModel
	if err := g2.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatalf("decoded sentinel rejected: %v", err)
	}
	labels, err := Relabel([]geom.Point{{0, 0}, {1, 1}}, &g2)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range labels {
		if l != cluster.Noise {
			t.Fatalf("object %d adopted by the empty sentinel: %v", i, l)
		}
	}
}

// TestGlobalModelSentinelValidation pins the sentinel's validation rules:
// EpsGlobal 0 is legal exactly when the model carries no representatives.
func TestGlobalModelSentinelValidation(t *testing.T) {
	ok := &model.GlobalModel{MinPtsGlobal: 2}
	if err := ok.Validate(); err != nil {
		t.Fatalf("empty sentinel rejected: %v", err)
	}
	bad := &model.GlobalModel{
		EpsGlobal: 0, MinPtsGlobal: 2, NumClusters: 1,
		Reps: []model.GlobalRepresentative{
			{Representative: model.Representative{Point: geom.Point{0, 0}, Eps: 1}, SiteID: "a", GlobalCluster: 1},
		},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("EpsGlobal 0 with representatives validated")
	}
	neg := &model.GlobalModel{EpsGlobal: -1, MinPtsGlobal: 2}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative EpsGlobal validated")
	}
}
