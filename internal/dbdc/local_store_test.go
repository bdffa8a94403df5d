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
// local models, for every index kind, both model kinds, at one worker and at
// four; and every kind must ship the frame the linear scan ships.
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
				} else if !bytes.Equal(gb, linear) {
					t.Errorf("%s/%s/w=%d: local model frame differs from the linear scan's", kind, mk, workers)
				}
			}
		}
	}
}

// TestLocalModelFrameIdentity holds the marshalled local model of every kind
// × worker count × model kind to the frame digests recorded at commit
// e942b15 — the last one that still carried a slice-Euclidean path, where
// LocalStep and LocalStepStore shipped these same frames — over data sets A,
// B and C (seed 1). Digest pairs are {REP_Scor, REP_kMeans}; a site's model
// is independent of its index kind and worker count, so there is one pair
// per data set. (Up to PR 22 these were the "parallel" pairs, next to one
// pair per kind for a sequential expansion that no longer exists.)
func TestLocalModelFrameIdentity(t *testing.T) {
	want := map[string][2]string{
		"A": {"81b27d4a3a4dca2c", "423aa271f47dc9d3"},
		"B": {"e2ff2bf9fadae2f8", "6b1e46d75d5fd5d1"},
		"C": {"4ebef30b8c2033ce", "a5684c8438a76776"},
	}
	for _, ds := range data.ABC(1) {
		for _, kind := range index.Kinds() {
			for _, workers := range []int{1, 4} {
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
					if got := fmt.Sprintf("%x", sum[:8]); got != want[ds.Name][k] {
						t.Errorf("%s/%s/w=%d/%s: frame digest %s, want %s", ds.Name, kind, workers, m.Kind, got, want[ds.Name][k])
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
