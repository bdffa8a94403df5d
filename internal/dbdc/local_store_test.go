package dbdc

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
)

// storeTestPoints builds two blobs plus noise straight into a store.
func storeTestPoints(seed int64) *geom.Store {
	rng := rand.New(rand.NewSource(seed))
	st := geom.NewStore(2, 500)
	for i := 0; i < 200; i++ {
		st.AppendCoords(5+rng.NormFloat64(), 5+rng.NormFloat64())
	}
	for i := 0; i < 200; i++ {
		st.AppendCoords(20+rng.NormFloat64(), 8+rng.NormFloat64())
	}
	for i := 0; i < 100; i++ {
		st.AppendCoords(rng.Float64()*30, rng.Float64()*20)
	}
	return st
}

// TestLocalStepStoreDifferential: LocalStep over independently cloned points
// (copied once into a store by index.Build) and LocalStepStore over the
// equivalent store must produce identical clusterings and byte-identical
// local models, for every index kind, both model kinds, and both the
// sequential and the parallel kernel; and under the parallel kernel, whose
// clustering does not depend on the index kind, every kind must ship the
// frame the linear scan ships.
func TestLocalStepStoreDifferential(t *testing.T) {
	st := storeTestPoints(7)
	clones := make([]geom.Point, st.Len())
	for i := range clones {
		clones[i] = st.Point(i).Clone()
	}
	for _, mk := range []model.Kind{model.RepScor, model.RepKMeans} {
		for _, workers := range []int{1, 4} {
			var linear []byte
			for _, kind := range index.Kinds() {
				cfg := Config{
					Local:       dbscan.Params{Eps: 0.8, MinPts: 5},
					Model:       mk,
					Index:       kind,
					SiteWorkers: workers,
				}
				want, err := LocalStep("site", clones, cfg)
				if err != nil {
					t.Fatalf("%s/%s/w=%d: LocalStep: %v", kind, mk, workers, err)
				}
				got, err := LocalStepStore("site", st, cfg)
				if err != nil {
					t.Fatalf("%s/%s/w=%d: LocalStepStore: %v", kind, mk, workers, err)
				}
				if !reflect.DeepEqual(got.Clustering, want.Clustering) {
					t.Errorf("%s/%s/w=%d: clusterings differ between LocalStepStore and LocalStep", kind, mk, workers)
				}
				gb, err := got.Model.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				wb, err := want.Model.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb, wb) {
					t.Errorf("%s/%s/w=%d: local model wire frames differ between LocalStepStore and LocalStep", kind, mk, workers)
				}
				if kind == index.KindLinear {
					linear = gb
				} else if workers > 1 && !bytes.Equal(gb, linear) {
					t.Errorf("%s/%s/w=%d: parallel local model frame differs from the linear scan's", kind, mk, workers)
				}
			}
		}
	}
}

// TestLocalModelFrameIdentity holds the marshalled local model of every kind
// × worker count × model kind to the frame digests recorded at commit
// e942b15 — the last one that still carried a slice-Euclidean path, where
// LocalStep and LocalStepStore shipped these same frames — over data sets A,
// B and C (seed 1). Digest pairs are {REP_Scor, REP_kMeans}; the parallel
// kernel's model is independent of the index kind, so it has one pair per
// data set.
func TestLocalModelFrameIdentity(t *testing.T) {
	want := map[string]map[index.Kind][2]string{
		"A": {
			index.KindLinear: {"c5125bb4aed00c77", "f1be0a59ff14b291"},
			index.KindGrid:   {"ac51c9be58ea8cea", "43abcc49e01fea86"},
			index.KindKDTree: {"1b75d1360e1b65d5", "9949f2794b5cb90f"},
			index.KindRStar:  {"c971ffd64779f8cb", "60e23c6ffed685b7"},
			index.KindMTree:  {"abd1282f46906380", "2ae396cfae278de6"},
			"parallel":       {"81b27d4a3a4dca2c", "423aa271f47dc9d3"},
		},
		"B": {
			index.KindLinear: {"d0eb2141ae8b2457", "333eec6fa3bf9518"},
			index.KindGrid:   {"23ed845e7945e5ae", "ae2a2cf0a8b1fed0"},
			index.KindKDTree: {"f1764dfc8e280ec6", "33f1990521669d2d"},
			index.KindRStar:  {"deecbe1b5aa5d168", "6bba3731e18d07ce"},
			index.KindMTree:  {"441382c54afcfaf6", "5920b153c05fc42c"},
			"parallel":       {"e2ff2bf9fadae2f8", "6b1e46d75d5fd5d1"},
		},
		"C": {
			index.KindLinear: {"afeef77b48620858", "075549e5acf5b53a"},
			index.KindGrid:   {"df5d71d92ad464af", "b99dae4fa5779692"},
			index.KindKDTree: {"c1260f3be622028b", "caa48d9ae93e9de8"},
			index.KindRStar:  {"50411b56a4b286fa", "0201cd4f599cd57f"},
			index.KindMTree:  {"f3c5e973862cd353", "63ad2db5d726e0f5"},
			"parallel":       {"4ebef30b8c2033ce", "a5684c8438a76776"},
		},
	}
	for _, ds := range data.ABC(1) {
		for _, kind := range index.Kinds() {
			for _, workers := range []int{1, 4} {
				key := kind
				if workers > 1 {
					key = "parallel"
				}
				// One clustering serves both model kinds: the REP_kMeans
				// frame is condensed from the REP_Scor run's result.
				out, err := LocalStep("site", ds.Points, Config{Local: ds.Params, Model: model.RepScor, Index: kind, SiteWorkers: workers})
				if err != nil {
					t.Fatalf("%s/%s/w=%d: %v", ds.Name, kind, workers, err)
				}
				kmCfg := out.cfg
				kmCfg.Model = model.RepKMeans
				km, _, err := buildLocalModel("site", out.Points, out.Clustering, kmCfg, 0)
				if err != nil {
					t.Fatalf("%s/%s/w=%d: %v", ds.Name, kind, workers, err)
				}
				for k, m := range []*model.LocalModel{out.Model, km} {
					frame, err := m.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(frame)
					if got := fmt.Sprintf("%x", sum[:8]); got != want[ds.Name][key][k] {
						t.Errorf("%s/%s/w=%d/%s: frame digest %s, want %s", ds.Name, kind, workers, m.Kind, got, want[ds.Name][key][k])
					}
				}
			}
		}
	}
}

// TestLocalStepStoreOutcomeViews: the store outcome's Points alias the
// store — handing the same backing array to relabeling without a copy.
func TestLocalStepStoreOutcomeViews(t *testing.T) {
	st := storeTestPoints(3)
	out, err := LocalStepStore("s", st, Config{Local: dbscan.Params{Eps: 0.8, MinPts: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Points) != st.Len() {
		t.Fatalf("outcome has %d points, store %d", len(out.Points), st.Len())
	}
	if &out.Points[0][0] != &st.Point(0)[0] {
		t.Fatal("outcome points do not alias the store")
	}
}
