package stream

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	idbdc "github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/leakcheck"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/serve"
	"github.com/dbdc-go/dbdc/internal/transport"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// repKey identifies a global representative across model versions the same
// way the server's stable-id matcher does: origin site plus exact point.
func repKey(r model.GlobalRepresentative) string {
	return r.SiteID + "|" + fmt.Sprint([]float64(r.Point))
}

// TestStreamingEndToEnd is the acceptance run for the always-on streaming
// round: two streaming sites ingest drifting streams over sliding windows
// (≥5 full window turns each) and upload deltas; a third, batch site
// participates with plain full-model exchanges; the update server folds
// everything on a debounced schedule and hot-swaps the serving registry,
// which classify clients read over TCP throughout. Run under -race in CI.
//
// Checked invariants:
//   - the server rebuilds ≥3 global versions and the registry hot-swaps
//     each one; classify replies carry monotonically non-decreasing
//     versions;
//   - global cluster ids are stable: across consecutive published models,
//     any cluster pair sharing a mutual majority (>50%) of representatives
//     keeps its id;
//   - the batch site's representatives appear in the global model (full
//     and delta uploads mix end to end).
func TestStreamingEndToEnd(t *testing.T) {
	cfg := idbdc.Config{Local: dbscan.Params{Eps: 0.5, MinPts: 5}}
	srv, err := transport.NewUpdateServer("127.0.0.1:0", cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetDebounce(10 * time.Millisecond)

	// The registry is fed from the rebuild hook; published models are also
	// recorded for the stable-id audit below.
	reg := serve.NewRegistry("")
	publish := reg.PublishFunc(func(err error) { t.Errorf("publish: %v", err) })
	var pubMu sync.Mutex
	var published []*model.GlobalModel
	srv.SetOnGlobal(func(g *model.GlobalModel) {
		pubMu.Lock()
		published = append(published, g)
		pubMu.Unlock()
		publish(g)
	})
	go srv.Serve(0)

	front, err := serve.NewServer("127.0.0.1:0", serve.ServerConfig{Registry: reg, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	go front.Serve()

	// A classify reader polls throughout: versions must never go
	// backwards while the models hot-swap underneath.
	readerDone := make(chan struct{})
	stopReader := make(chan struct{})
	go func() {
		defer close(readerDone)
		client, err := serve.Dial(front.Addr(), 5*time.Second)
		if err != nil {
			t.Errorf("classify dial: %v", err)
			return
		}
		defer client.Close()
		var last uint64
		for {
			select {
			case <-stopReader:
				return
			default:
			}
			if reg.Current() == nil {
				continue // nothing published yet
			}
			_, version, err := client.Classify(geom.Point{0, 0})
			if err != nil {
				t.Errorf("classify: %v", err)
				return
			}
			if version < last {
				t.Errorf("classify version went backwards: %d after %d", version, last)
				return
			}
			last = version
			time.Sleep(time.Millisecond)
		}
	}()

	// Two streaming sites. Each stream interleaves a persistent anchor
	// blob with a blob that relocates every window turn — so the local
	// clustering drifts enough to keep the change policy busy while the
	// anchor cluster persists across every version.
	const window = 120
	const turns = 6
	var wg sync.WaitGroup
	siteErrs := make(chan error, 2)
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(40 + s)))
			base := float64(s * 100)
			site, err := NewSite(Config{
				SiteID:     fmt.Sprintf("stream-%d", s),
				Cluster:    cfg,
				Window:     window,
				Threshold:  0.15,
				CheckEvery: 24,
			}, &transport.StreamClient{Addr: srv.Addr(), Timeout: 5 * time.Second})
			if err != nil {
				siteErrs <- err
				return
			}
			for turn := 0; turn < turns+1; turn++ {
				moving := geom.Point{base + 12 + 4*float64(turn), 12}
				for i := 0; i < window; i++ {
					center := geom.Point{base, 0} // the anchor
					if i%2 == 0 {
						center = moving
					}
					if err := site.Ingest(data.Blob(rng, center, 0.25, 1)[0]); err != nil {
						siteErrs <- fmt.Errorf("site %d: %w", s, err)
						return
					}
				}
			}
			if err := site.Flush(); err != nil {
				siteErrs <- fmt.Errorf("site %d flush: %w", s, err)
				return
			}
			st := site.Stats()
			if st.Turns < 5 {
				siteErrs <- fmt.Errorf("site %d made only %d window turns", s, st.Turns)
				return
			}
			if st.DeltaUploads == 0 {
				siteErrs <- fmt.Errorf("site %d never uploaded a delta", s)
				return
			}
			siteErrs <- nil
		}(s)
	}

	// The batch site uploads full models mid-run, twice, via the round
	// exchange.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		var pts []geom.Point
		for e := 0; e < 2; e++ {
			pts = append(pts, data.Blob(rng, geom.Point{500, float64(e * 20)}, 0.25, 150)...)
			out, err := idbdc.LocalStep("batch", pts, cfg)
			if err == nil {
				_, _, _, err = transport.Exchange(srv.Addr(), out.Model, 5*time.Second)
			}
			if err != nil {
				t.Errorf("batch site: %v", err)
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()

	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-siteErrs; err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stopReader)
	<-readerDone

	if v := srv.Version(); v < 3 {
		t.Fatalf("server rebuilt only %d global versions", v)
	}
	if reg.Published() < 3 {
		t.Fatalf("registry hot-swapped only %d versions", reg.Published())
	}
	if err := srv.LastRebuildErr(); err != nil {
		t.Fatal(err)
	}

	pubMu.Lock()
	defer pubMu.Unlock()
	if len(published) < 3 {
		t.Fatalf("only %d published models", len(published))
	}
	// The batch site made it into the fold.
	finalSites := make(map[string]bool)
	for _, r := range published[len(published)-1].Reps {
		finalSites[r.SiteID] = true
	}
	if !finalSites["batch"] || !finalSites["stream-0"] || !finalSites["stream-1"] {
		t.Fatalf("final global model misses sites: %v", finalSites)
	}

	// Stable-id audit over consecutive versions: whenever a cluster of the
	// newer model shares a mutual majority of representatives with a
	// cluster of the older one, it must keep that cluster's id.
	audited := 0
	for v := 1; v < len(published); v++ {
		prev, cur := published[v-1], published[v]
		prevOf := make(map[string]cluster.ID, len(prev.Reps))
		prevSize := make(map[cluster.ID]int)
		for _, r := range prev.Reps {
			prevOf[repKey(r)] = r.GlobalCluster
			prevSize[r.GlobalCluster]++
		}
		curSize := make(map[cluster.ID]int)
		overlap := make(map[[2]cluster.ID]int)
		for _, r := range cur.Reps {
			curSize[r.GlobalCluster]++
			if p, ok := prevOf[repKey(r)]; ok {
				overlap[[2]cluster.ID{r.GlobalCluster, p}]++
			}
		}
		for pair, n := range overlap {
			c, p := pair[0], pair[1]
			if 2*n > curSize[c] && 2*n > prevSize[p] {
				audited++
				if c != p {
					t.Fatalf("version %d: cluster with mutual-majority overlap renamed %d → %d", v, p, c)
				}
			}
		}
	}
	if audited == 0 {
		t.Fatal("stable-id audit never fired: no cluster persisted between versions")
	}
}
