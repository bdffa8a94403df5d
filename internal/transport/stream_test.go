package transport

import (
	"math/rand"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

// localModelOf runs LocalStep over a blob set and returns the site's model.
func localModelOf(t *testing.T, siteID string, pts []geom.Point) *model.LocalModel {
	t.Helper()
	out, err := dbdc.LocalStep(siteID, pts, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	return out.Model
}

// deltaOf derives and commits the next delta for a model.
func deltaOf(tr *model.DeltaTracker, m *model.LocalModel) *model.LocalDelta {
	p := tr.Delta(m)
	tr.Commit(p)
	return p.Delta
}

func TestDeltaAckSectionRoundTrip(t *testing.T) {
	for _, want := range []DeltaAck{
		{Seq: 1, GlobalVersion: 0},
		{Resync: true, Seq: 42, GlobalVersion: 7},
	} {
		got, err := parseDeltaAck(encodeDeltaAck(want))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("ack round trip: got %+v, want %+v", got, want)
		}
	}
	// An ack without the ack section is a protocol error, not a zero value.
	if _, err := parseDeltaAck(nil); err == nil {
		t.Fatal("empty ack payload accepted")
	}
	// Unknown sections before the ack are skipped.
	payload := append([]byte{0x7f, 3, 0, 0, 0, 1, 2, 3}, encodeDeltaAck(DeltaAck{Seq: 9})...)
	got, err := parseDeltaAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 9 {
		t.Fatalf("ack after unknown section: %+v", got)
	}
}

func TestStreamStatsSectionRoundTrip(t *testing.T) {
	want := StreamStats{Window: 150, Turns: 12, Change: 0.25}
	secs, err := parseSections(appendStreamStatsSection(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if secs.phases != nil {
		t.Fatal("phases materialized out of nothing")
	}
	if secs.stream == nil || *secs.stream != want {
		t.Fatalf("stats round trip: got %+v, want %+v", secs.stream, want)
	}
}

// A streaming site uploads a snapshot delta, then an incremental one; the
// server folds both, acks each with the applied sequence, and the global
// model reflects the folded state.
func TestStreamClientDeltaRound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(2)

	client := &StreamClient{Addr: srv.Addr(), Timeout: 5 * time.Second}
	tracker := model.NewDeltaTracker()

	pts := blob(rng, 0, 0, 200)
	m1 := localModelOf(t, "st-1", pts)
	res, err := client.Upload(m1, deltaOf(tracker, m1), &StreamStats{Window: 200, Turns: 1, Change: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeDelta || res.Resync {
		t.Fatalf("snapshot upload: %+v", res)
	}
	if res.Seq != 1 {
		t.Fatalf("snapshot acked with seq %d", res.Seq)
	}

	// The site grows a second cluster; the delta carries only the change.
	pts = append(pts, blob(rng, 30, 30, 200)...)
	m2 := localModelOf(t, "st-1", pts)
	d2 := deltaOf(tracker, m2)
	if d2.Snapshot() {
		t.Fatal("second upload degenerated to a snapshot")
	}
	res, err = client.Upload(m2, d2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeDelta || res.Seq != 2 {
		t.Fatalf("incremental upload: %+v", res)
	}
	if !srv.WaitVersion(2, 2*time.Second) {
		t.Fatalf("server version %d after two folds", srv.Version())
	}
	if g := srv.Global(); g == nil || g.NumClusters != 2 {
		t.Fatalf("global after folds: %+v", srv.Global())
	}
	if st, ok := srv.StreamInfo("st-1"); !ok || st.Window != 200 || st.Turns != 1 {
		t.Fatalf("stream info: %+v ok=%v", st, ok)
	}
}

// A delta whose base does not match the server's folded state (here: the
// server never saw the site) must be answered with a resync demand, after
// which a snapshot re-establishes the chain.
func TestStreamClientResync(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(2)

	client := &StreamClient{Addr: srv.Addr(), Timeout: 5 * time.Second}
	tracker := model.NewDeltaTracker()

	m1 := localModelOf(t, "st-r", blob(rng, 0, 0, 200))
	deltaOf(tracker, m1) // seq 1 never reaches the server

	m2 := localModelOf(t, "st-r", append(blob(rng, 0, 0, 200), blob(rng, 30, 0, 200)...))
	res, err := client.Upload(m2, deltaOf(tracker, m2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resync {
		t.Fatalf("stale-base delta was not answered with resync: %+v", res)
	}
	if srv.Version() != 0 {
		t.Fatal("resync-rejected delta triggered a rebuild")
	}

	// Recovery: reset the tracker, upload a snapshot.
	tracker.Reset()
	res, err = client.Upload(m2, deltaOf(tracker, m2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resync || res.Seq != 1 {
		t.Fatalf("post-reset snapshot: %+v", res)
	}
	if g := srv.Global(); g == nil || g.NumClusters != 2 {
		t.Fatalf("global after recovery: %+v", g)
	}
}

// With a debounce set, a burst of delta folds coalesces into fewer rebuilds
// than folds, and Flush forces the pending one out.
func TestUpdateServerDebounceCoalesces(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetDebounce(250 * time.Millisecond)
	go srv.Serve(0)

	client := &StreamClient{Addr: srv.Addr(), Timeout: 5 * time.Second}
	tracker := model.NewDeltaTracker()
	var pts []geom.Point
	const uploads = 4
	for i := 0; i < uploads; i++ {
		pts = append(pts, blob(rng, float64(i*40), 0, 150)...)
		m := localModelOf(t, "st-burst", pts)
		if _, err := client.Upload(m, deltaOf(tracker, m), nil); err != nil {
			t.Fatal(err)
		}
	}
	// All four folds landed inside one debounce window (sequential local
	// uploads are far faster than 250ms); at most a couple of rebuilds may
	// have fired, never one per fold.
	if v := srv.Version(); v >= uploads {
		t.Fatalf("debounce did not coalesce: %d rebuilds for %d folds", v, uploads)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if g := srv.Global(); g == nil || g.NumClusters != uploads {
		t.Fatalf("flushed global: %+v", g)
	}
	if err := srv.LastRebuildErr(); err != nil {
		t.Fatal(err)
	}
	// Nothing left pending: a second Flush is a no-op.
	v := srv.Version()
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if srv.Version() != v {
		t.Fatal("idle Flush rebuilt")
	}
}

// A full upload supersedes the folded delta state: the site's next delta on
// the old chain must get a resync demand.
func TestFullUploadInvalidatesDeltaChain(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(3)

	client := &StreamClient{Addr: srv.Addr(), Timeout: 5 * time.Second}
	tracker := model.NewDeltaTracker()
	pts := blob(rng, 0, 0, 200)
	m1 := localModelOf(t, "st-mix", pts)
	if _, err := client.Upload(m1, deltaOf(tracker, m1), nil); err != nil {
		t.Fatal(err)
	}
	// The same site does a full exchange (e.g. a restart in batch mode).
	if _, _, _, err := Exchange(srv.Addr(), m1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Its old delta chain is now invalid.
	pts = append(pts, blob(rng, 30, 0, 200)...)
	m2 := localModelOf(t, "st-mix", pts)
	res, err := client.Upload(m2, deltaOf(tracker, m2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resync {
		t.Fatalf("delta on a superseded chain was folded: %+v", res)
	}
}

// Global cluster ids stay stable across rebuilds when the clusters keep a
// majority of their representatives.
func TestUpdateServerStableGlobalIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(3)

	client := &StreamClient{Addr: srv.Addr(), Timeout: 5 * time.Second}
	tracker := model.NewDeltaTracker()
	anchor := blob(rng, 0, 0, 300) // persists through every version
	far := blob(rng, 60, 60, 300)

	m1 := localModelOf(t, "st-id", append(append([]geom.Point{}, anchor...), far...))
	if _, err := client.Upload(m1, deltaOf(tracker, m1), nil); err != nil {
		t.Fatal(err)
	}
	g1 := srv.Global()
	idOf := func(g *model.GlobalModel, near geom.Point) (int64, bool) {
		for _, r := range g.Reps {
			if dx, dy := r.Point[0]-near[0], r.Point[1]-near[1]; dx*dx+dy*dy < 4 {
				return int64(r.GlobalCluster), true
			}
		}
		return 0, false
	}
	anchorID, ok := idOf(g1, geom.Point{0, 0})
	if !ok {
		t.Fatal("anchor cluster has no reps in v1")
	}

	// v2: the far cluster moves (all its reps replaced), the anchor keeps
	// most of its points — its global id must survive the rebuild.
	moved := blob(rng, 90, 90, 300)
	m2 := localModelOf(t, "st-id", append(append([]geom.Point{}, anchor...), moved...))
	if _, err := client.Upload(m2, deltaOf(tracker, m2), nil); err != nil {
		t.Fatal(err)
	}
	g2 := srv.Global()
	if err := g2.Validate(); err != nil {
		t.Fatalf("relabeled global model invalid: %v", err)
	}
	got, ok := idOf(g2, geom.Point{0, 0})
	if !ok {
		t.Fatal("anchor cluster has no reps in v2")
	}
	if got != anchorID {
		t.Fatalf("anchor cluster renamed %d → %d across rebuild", anchorID, got)
	}
	movedID, ok := idOf(g2, geom.Point{90, 90})
	if !ok {
		t.Fatal("moved cluster has no reps in v2")
	}
	if movedID == anchorID {
		t.Fatal("moved cluster collided with the anchor's stable id")
	}
}
