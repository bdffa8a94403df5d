package transport

import (
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

func TestUpdateServerValidation(t *testing.T) {
	bad := testCfg()
	bad.Local.MinPts = 0
	if _, err := NewUpdateServer("127.0.0.1:0", bad, 0); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// One site updates its model twice; the second reply must reflect the new
// model (more clusters), and the server must retain exactly one model for
// the site.
func TestUpdateServerReplacesModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(3) }()

	// First epoch: one cluster.
	pts := blob(rng, 0, 0, 200)
	out1, err := dbdc.LocalStep("obs-1", pts, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	g1, _, _, err := Exchange(srv.Addr(), out1.Model, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumClusters != 1 {
		t.Fatalf("epoch 1: %d clusters", g1.NumClusters)
	}
	// A second site appears.
	out2, err := dbdc.LocalStep("obs-2", blob(rng, 50, 0, 200), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	g2, _, _, err := Exchange(srv.Addr(), out2.Model, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumClusters != 2 {
		t.Fatalf("epoch 2: %d clusters (want obs-1's retained + obs-2's)", g2.NumClusters)
	}
	// Site 1 grows a second cluster and re-uploads.
	pts = append(pts, blob(rng, 20, 20, 200)...)
	out3, err := dbdc.LocalStep("obs-1", pts, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	g3, _, _, err := Exchange(srv.Addr(), out3.Model, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumClusters != 3 {
		t.Fatalf("epoch 3: %d clusters", g3.NumClusters)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := srv.Sites(); !reflect.DeepEqual(got, []string{"obs-1", "obs-2"}) {
		t.Fatalf("Sites = %v", got)
	}
	if srv.Global() == nil || srv.Global().NumClusters != 3 {
		t.Fatal("server did not retain the latest global model")
	}
}

func TestUpdateServerRejectsGarbage(t *testing.T) {
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(1)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := WriteFrame(conn, MsgLocalModelTimed, []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	msgType, payload, _, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != MsgError || len(payload) == 0 {
		t.Fatalf("expected error reply, got type 0x%02x %q", msgType, payload)
	}
	if srv.Global() != nil {
		t.Fatal("garbage update changed server state")
	}
}

// Serve with unlimited updates shuts down cleanly when the listener
// closes.
func TestUpdateServerCloseStopsServe(t *testing.T) {
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(0) }()
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not stop after Close")
	}
}

// Concurrent updates from many sites must all be answered with consistent
// global models.
func TestUpdateServerConcurrentSites(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 6
	go srv.Serve(n)
	type result struct {
		id  string
		err error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		pts := blob(rng, float64(i*30), 0, 150)
		id := string(rune('a' + i))
		go func(id string, pts []geom.Point) {
			out, err := dbdc.LocalStep(id, pts, testCfg())
			if err == nil {
				_, _, _, err = Exchange(srv.Addr(), out.Model, 5*time.Second)
			}
			results <- result{id, err}
		}(id, pts)
	}
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("site %s: %v", r.id, r.err)
		}
	}
	if got := srv.Global().NumClusters; got != n {
		t.Fatalf("final global clusters = %d, want %d", got, n)
	}
	if got := len(srv.Sites()); got != n {
		t.Fatalf("retained sites = %d", got)
	}
}

// TestUpdateServerNewestModelWinsConcurrent races several sites, each
// uploading a growing sequence of model epochs, against each other (run
// under -race in CI). Per site the uploads are ordered — exactly the
// deployment contract, a site never races itself — so whatever the
// cross-site interleaving, the server must retain every site's newest
// model, and the final global model must reflect exactly those. The
// SetOnGlobal sink, invoked under the store lock, must observe one rebuild
// per processed upload with the final observation identical to Global().
func TestUpdateServerNewestModelWinsConcurrent(t *testing.T) {
	const sites = 4
	const epochs = 3
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var sinkMu sync.Mutex
	var observed []*model.GlobalModel
	srv.SetOnGlobal(func(g *model.GlobalModel) {
		sinkMu.Lock()
		observed = append(observed, g)
		sinkMu.Unlock()
	})
	go srv.Serve(sites * epochs)

	errs := make(chan error, sites)
	for s := 0; s < sites; s++ {
		go func(site int) {
			rng := rand.New(rand.NewSource(int64(100 + site)))
			id := string(rune('a' + site))
			var pts []geom.Point
			for e := 0; e < epochs; e++ {
				// Epoch e adds a new well-separated blob: the site's newest
				// model has e+1 clusters, disjoint from every other site's.
				pts = append(pts, blob(rng, float64(site*1000+e*100), 0, 150)...)
				out, err := dbdc.LocalStep(id, pts, testCfg())
				if err == nil {
					_, _, _, err = Exchange(srv.Addr(), out.Model, 10*time.Second)
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

	// Newest model wins per site: the final global clustering is built from
	// every site's last upload — sites × epochs disjoint clusters.
	final := srv.Global()
	if final == nil || final.NumClusters != sites*epochs {
		t.Fatalf("final global model has %d clusters, want %d (a stale model survived)",
			final.NumClusters, sites*epochs)
	}
	if got := len(srv.Sites()); got != sites {
		t.Fatalf("retained %d site models, want %d", got, sites)
	}
	sinkMu.Lock()
	defer sinkMu.Unlock()
	if len(observed) != sites*epochs {
		t.Fatalf("sink observed %d rebuilds, want %d", len(observed), sites*epochs)
	}
	if observed[len(observed)-1] != final {
		t.Fatal("sink's last observation is not the retained global model: rebuild order leaked")
	}
	// Rebuild inputs only ever grow sites, never lose them: cluster counts
	// along the observation order never drop below a previous count from
	// the same site set — cheap necessary condition we can check globally:
	// the last observation must carry the maximum cluster count.
	for i, g := range observed {
		if g == nil {
			t.Fatalf("observation %d is nil", i)
		}
		if g.NumClusters > final.NumClusters {
			t.Fatalf("observation %d has %d clusters, more than the final %d", i, g.NumClusters, final.NumClusters)
		}
	}
}
