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

// linearStep is LocalStepStore with the R*-tree swapped for the linear scan,
// the oracle every index is held to: dbscan.Run over index.NewLinearStore(st)
// condensed by LocalStepClustered.
func linearStep(t *testing.T, st *geom.Store, cfg Config) *LocalOutcome {
	t.Helper()
	res, err := dbscan.Run(index.NewLinearStore(st), cfg.Local, dbscan.Options{
		CollectSpecificCores: true,
		Workers:              cfg.SiteWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := LocalStepClustered("site", st, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// marshalFrame is m's wire frame.
func marshalFrame(t *testing.T, m *model.LocalModel) []byte {
	t.Helper()
	frame, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestLocalStepStoreDifferential: LocalStep over independently cloned points
// (copied once into a store by index.Build) and LocalStepStore over the
// equivalent store must produce identical clusterings and byte-identical
// local models, for both model kinds, at one worker and at four; and both
// must ship the frame the linear scan's clustering condenses to.
func TestLocalStepStoreDifferential(t *testing.T) {
	st := storeTestPoints(7)
	clones := make([]geom.Point, st.Len())
	for i := range clones {
		clones[i] = st.Point(i).Clone()
	}
	for _, mk := range []model.Kind{model.RepScor, model.RepKMeans} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w=%d", mk, workers), func(t *testing.T) {
				cfg := Config{
					Local:       dbscan.Params{Eps: 0.8, MinPts: 5},
					Model:       mk,
					SiteWorkers: workers,
				}
				want, err := LocalStep("site", clones, cfg)
				if err != nil {
					t.Fatalf("LocalStep: %v", err)
				}
				got, err := LocalStepStore("site", st, cfg)
				if err != nil {
					t.Fatalf("LocalStepStore: %v", err)
				}
				if !reflect.DeepEqual(got.Clustering, want.Clustering) {
					t.Error("clusterings differ between LocalStepStore and LocalStep")
				}
				gb := marshalFrame(t, got.Model)
				if !bytes.Equal(gb, marshalFrame(t, want.Model)) {
					t.Error("local model wire frames differ between LocalStepStore and LocalStep")
				}
				if !bytes.Equal(gb, marshalFrame(t, linearStep(t, st, cfg).Model)) {
					t.Error("local model frame differs from the linear scan's")
				}
			})
		}
	}
}

// TestLocalModelFrameIdentity holds the marshalled local model of every
// worker count × model kind to the frame digests recorded at commit
// e942b15 — the last one that still carried a slice-Euclidean path, where
// LocalStep and LocalStepStore shipped these same frames — over data sets A,
// B and C (seed 1), for LocalStepStore ("rstar") and for the linear scan's
// clustering condensed by LocalStepClustered ("linear"). Digest pairs are
// {REP_Scor, REP_kMeans}; a site's model is independent of its access method
// and worker count, so there is one pair per data set. (These were once the
// "parallel" pairs, next to one pair per kind for a sequential expansion that
// no longer exists.)
func TestLocalModelFrameIdentity(t *testing.T) {
	want := map[string][2]string{
		"A": {"81b27d4a3a4dca2c", "423aa271f47dc9d3"},
		"B": {"e2ff2bf9fadae2f8", "6b1e46d75d5fd5d1"},
		"C": {"4ebef30b8c2033ce", "a5684c8438a76776"},
	}
	steps := []struct {
		name string
		step func(t *testing.T, st *geom.Store, cfg Config) *LocalOutcome
	}{
		{"rstar", func(t *testing.T, st *geom.Store, cfg Config) *LocalOutcome {
			out, err := LocalStepStore("site", st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"linear", linearStep},
	}
	for _, ds := range data.ABC(1) {
		for _, workers := range []int{1, 4} {
			for _, s := range steps {
				t.Run(fmt.Sprintf("%s/w=%d/%s", ds.Name, workers, s.name), func(t *testing.T) {
					out := s.step(t, ds.Store, Config{Local: ds.Params, Model: model.RepScor, SiteWorkers: workers})
					// One clustering serves both model kinds: the
					// REP_kMeans frame is condensed from the REP_Scor
					// run's result.
					kmCfg := out.cfg
					kmCfg.Model = model.RepKMeans
					km, err := LocalStepClustered("site", out.st, out.Clustering, kmCfg)
					if err != nil {
						t.Fatal(err)
					}
					for k, m := range []*model.LocalModel{out.Model, km.Model} {
						sum := sha256.Sum256(marshalFrame(t, m))
						if got := fmt.Sprintf("%x", sum[:8]); got != want[ds.Name][k] {
							t.Errorf("%s: frame digest %s, want %s", m.Kind, got, want[ds.Name][k])
						}
					}
				})
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
