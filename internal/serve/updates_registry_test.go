package serve

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// TestRegistryFromUpdateServer closes the incremental serving loop: an
// UpdateServer under concurrent site uploads feeds a registry through
// SetOnGlobal (the exact wiring dbdc-server uses), while readers classify
// throughout (run under -race in CI). The registry must finish at exactly
// one version per rebuild — the callback runs under the store lock, so no
// publication can be lost or reordered — with the final snapshot serving
// the server's final global model.
func TestRegistryFromUpdateServer(t *testing.T) {
	cfg := dbdc.Config{Local: dbscan.Params{Eps: 0.5, MinPts: 5}}
	srv, err := transport.NewUpdateServer("127.0.0.1:0", cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := NewRegistry("")
	srv.SetOnGlobal(reg.PublishFunc(func(err error) { t.Errorf("publish: %v", err) }))

	const sites = 3
	const epochs = 3
	go srv.Serve(sites * epochs)

	// Readers classify against whatever snapshot is current while the
	// uploads rebuild and hot-swap underneath them.
	var stop sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		stop.Add(1)
		go func() {
			defer stop.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := reg.Current()
				if snap == nil {
					continue
				}
				if snap.Version < last {
					t.Error("registry version went backwards")
					return
				}
				last = snap.Version
				if _, err := snap.Classifier.Classify(geom.Point{0, 0}); err != nil {
					t.Errorf("classify against version %d: %v", snap.Version, err)
					return
				}
			}
		}()
	}

	errs := make(chan error, sites)
	for s := 0; s < sites; s++ {
		go func(site int) {
			rng := rand.New(rand.NewSource(int64(site)))
			id := string(rune('a' + site))
			var pts []geom.Point
			for e := 0; e < epochs; e++ {
				pts = append(pts, data.Blob(rng, geom.Point{float64(site*1000 + e*100), 0}, 0.3, 150)...)
				out, err := dbdc.LocalStep(id, pts, cfg)
				if err == nil {
					_, _, _, err = transport.Exchange(srv.Addr(), out.Model, 10*time.Second)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(s)
	}
	for s := 0; s < sites; s++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	stop.Wait()

	// One registry version per rebuild, none lost, none rejected.
	if got := reg.Version(); got != sites*epochs {
		t.Fatalf("registry at version %d after %d uploads", got, sites*epochs)
	}
	if reg.Rejected() != 0 {
		t.Fatalf("%d publications rejected", reg.Rejected())
	}
	// The current snapshot serves the server's final global model.
	snap := reg.Current()
	if snap == nil || snap.Global != srv.Global() {
		t.Fatal("current snapshot does not hold the server's final global model")
	}
	if snap.Global.NumClusters != sites*epochs {
		t.Fatalf("final model has %d clusters, want %d", snap.Global.NumClusters, sites*epochs)
	}
}
