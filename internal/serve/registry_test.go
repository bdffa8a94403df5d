package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

// versionedModel builds a valid single-representative global model whose
// cluster id encodes the generation — classifying the origin against it
// must return exactly that id, which is how the hot-swap tests detect a
// torn or mismatched snapshot.
func versionedModel(gen int32) *model.GlobalModel {
	return &model.GlobalModel{
		EpsGlobal:    1,
		MinPtsGlobal: 2,
		NumClusters:  1,
		Reps: []model.GlobalRepresentative{{
			Representative: model.Representative{Point: geom.Point{0, 0}, Eps: 1, LocalCluster: 0},
			SiteID:         "site-1",
			GlobalCluster:  cluster.ID(gen),
		}},
	}
}

func TestRegistryPublishAndVersioning(t *testing.T) {
	reg := NewRegistry("")
	if reg.Current() != nil || reg.Version() != 0 {
		t.Fatal("fresh registry is not empty")
	}
	s1, err := reg.Publish(versionedModel(7))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Version != 1 || reg.Version() != 1 {
		t.Fatalf("first publication got version %d", s1.Version)
	}
	s2, err := reg.Publish(versionedModel(8))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version != 2 {
		t.Fatalf("second publication got version %d", s2.Version)
	}
	// The earlier snapshot is untouched by the swap.
	if id, _ := s1.Classifier.Classify(geom.Point{0, 0}); id != 7 {
		t.Fatalf("pre-swap snapshot answered %v, want 7", id)
	}
	if id, _ := reg.Current().Classifier.Classify(geom.Point{0, 0}); id != 8 {
		t.Fatalf("current snapshot answered %v, want 8", id)
	}
	// Invalid models are rejected and leave the current snapshot alone.
	if _, err := reg.Publish(&model.GlobalModel{EpsGlobal: -1, MinPtsGlobal: 2}); err == nil {
		t.Fatal("negative-eps model published")
	}
	if _, err := reg.Publish(nil); err == nil {
		t.Fatal("nil model published")
	}
	if got := reg.Version(); got != 2 {
		t.Fatalf("rejected publications moved the version to %d", got)
	}
	if reg.Published() != 2 || reg.Rejected() != 2 {
		t.Fatalf("counters: published=%d rejected=%d, want 2/2", reg.Published(), reg.Rejected())
	}
	// The empty all-noise sentinel is publishable: serving "everything is
	// noise" is a legitimate model state, not an error.
	s3, err := reg.Publish(&model.GlobalModel{MinPtsGlobal: 2})
	if err != nil {
		t.Fatalf("sentinel rejected: %v", err)
	}
	if s3.Version != 3 {
		t.Fatalf("sentinel got version %d", s3.Version)
	}
}

// TestRegistryHotSwapUnderLoad is the race guard of the tentpole: a
// publisher hot-swaps a stream of model versions while reader goroutines
// classify at full speed. Under -race this proves the swap is data-race
// free; the assertions prove no reader ever observes a torn snapshot
// (label always matches the snapshot's version-encoded cluster id) and
// that observed versions are monotone per reader.
func TestRegistryHotSwapUnderLoad(t *testing.T) {
	reg := NewRegistry("")
	if _, err := reg.Publish(versionedModel(1)); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const swaps = 300
	var stop atomic.Bool
	var torn atomic.Int64
	var nonMonotone atomic.Int64
	var reads atomic.Int64
	var wg sync.WaitGroup

	origin := geom.Point{0, 0}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for !stop.Load() {
				snap := reg.Current()
				if snap == nil {
					continue
				}
				if snap.Version < lastVersion {
					nonMonotone.Add(1)
					return
				}
				lastVersion = snap.Version
				id, err := snap.Classifier.Classify(origin)
				if err != nil {
					torn.Add(1)
					return
				}
				// The generation encoded in the model equals the snapshot
				// version (the publisher publishes generation g as version
				// g): any mismatch means the reader saw a classifier from
				// one version paired with metadata from another.
				if uint64(id) != snap.Version {
					torn.Add(1)
					return
				}
				reads.Add(1)
			}
		}()
	}

	// Publisher: versions 2..swaps+1, generation == expected version.
	for g := int32(2); g <= swaps+1; g++ {
		snap, err := reg.Publish(versionedModel(g))
		if err != nil {
			t.Fatalf("publish generation %d: %v", g, err)
		}
		if snap.Version != uint64(g) {
			t.Fatalf("generation %d published as version %d", g, snap.Version)
		}
		if g%16 == 0 {
			time.Sleep(time.Millisecond) // let readers interleave
		}
	}
	stop.Store(true)
	wg.Wait()

	if torn.Load() > 0 {
		t.Fatalf("%d reads observed a torn snapshot", torn.Load())
	}
	if nonMonotone.Load() > 0 {
		t.Fatalf("%d readers saw the version go backwards", nonMonotone.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("no reader completed a single classification")
	}
	if got := reg.Version(); got != swaps+1 {
		t.Fatalf("final version %d, want %d", got, swaps+1)
	}
}
