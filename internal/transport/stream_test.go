package transport

import (
	"bytes"
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

// deltaOf numbers and commits the next upload of a model.
func deltaOf(tr *model.DeltaTracker, m *model.LocalModel) *model.LocalDelta {
	d := tr.Delta(m)
	tr.Commit(d)
	return d
}

// heldModel returns the encoded model the server holds for a site.
func heldModel(t *testing.T, srv *UpdateServer, siteID string) []byte {
	t.Helper()
	srv.mu.Lock()
	held := srv.entries[siteID].model
	srv.mu.Unlock()
	if held == nil {
		t.Fatalf("the server holds no model for %s", siteID)
	}
	b, err := held.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameModel reports whether the server holds exactly m for its site.
func sameModel(t *testing.T, srv *UpdateServer, m *model.LocalModel) bool {
	t.Helper()
	want, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(heldModel(t, srv, m.SiteID), want)
}

func TestDeltaAckSectionRoundTrip(t *testing.T) {
	for _, want := range []DeltaAck{
		{Seq: 1, GlobalVersion: 0},
		{Seq: 42, GlobalVersion: 7},
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
	secs, err := parseSections(streamStatsSection.Append(nil, want))
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

// A streaming site uploads twice; the server stores each model, acks each
// with the applied sequence, and the global model reflects the newest.
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
	if res.Mode != ModeDelta || res.Seq != 1 {
		t.Fatalf("first upload: %+v", res)
	}

	// The site grows a second cluster.
	pts = append(pts, blob(rng, 30, 30, 200)...)
	m2 := localModelOf(t, "st-1", pts)
	res, err = client.Upload(m2, deltaOf(tracker, m2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeDelta || res.Seq != 2 {
		t.Fatalf("second upload: %+v", res)
	}
	if !srv.WaitVersion(2, 2*time.Second) {
		t.Fatalf("server version %d after two uploads", srv.Version())
	}
	if !sameModel(t, srv, m2) {
		t.Fatal("the server does not hold the newest model")
	}
	if g := srv.Global(); g == nil || g.NumClusters != 2 {
		t.Fatalf("global after two uploads: %+v", srv.Global())
	}
	if st, ok := srv.StreamInfo("st-1"); !ok || st.Window != 200 || st.Turns != 1 {
		t.Fatalf("stream info: %+v ok=%v", st, ok)
	}
}

// An update server that never heard of a site — it restarted, or the site's
// earlier uploads went elsewhere — takes the site's next upload as it comes:
// there is no chain to re-establish.
func TestStreamUploadToFreshServer(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(1)

	client := &StreamClient{Addr: srv.Addr(), Timeout: 5 * time.Second}
	tracker := model.NewDeltaTracker()
	m1 := localModelOf(t, "st-r", blob(rng, 0, 0, 200))
	deltaOf(tracker, m1) // seq 1 went to a server that is gone

	m2 := localModelOf(t, "st-r", append(blob(rng, 0, 0, 200), blob(rng, 30, 0, 200)...))
	res, err := client.Upload(m2, deltaOf(tracker, m2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 2 || !sameModel(t, srv, m2) {
		t.Fatalf("upload 2 to a fresh server: %+v", res)
	}
	if g := srv.Global(); g == nil || g.NumClusters != 2 {
		t.Fatalf("global after one upload: %+v", g)
	}
}

// A streaming site uploads over a sliding window that turns over a tenth or
// three quarters between uploads. After every upload the model the server
// holds for the site is the site's model, byte for byte.
func TestServerHoldsUploadedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(0)
	client := &StreamClient{Addr: srv.Addr(), Timeout: 5 * time.Second}
	tracker := model.NewDeltaTracker()

	const window = 200
	var stream []geom.Point
	for len(stream) < 30*window {
		c := float64(len(stream) / window % 4)
		stream = append(stream, blob(rng, 3*c, 0, 10)...)
		stream = append(stream, blob(rng, 3*c, 3, 10)...)
	}
	for end, i := window, 0; end <= len(stream); i++ {
		m := localModelOf(t, "st-f", stream[end-window:end])
		d := tracker.Delta(m)
		res, err := client.Upload(m, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		tracker.Commit(d)
		if res.Seq != d.Seq || !sameModel(t, srv, m) {
			t.Fatalf("upload %d: the server does not hold the site's model", i)
		}
		if res.BytesSent < d.EncodedSize() {
			t.Fatalf("upload %d: %d B sent for a %d B delta", i, res.BytesSent, d.EncodedSize())
		}
		end += []int{window / 10, 3 * window / 4}[i%2]
	}
}

// With a debounce set, a burst of streaming uploads coalesces into fewer
// rebuilds than uploads, and Flush forces the pending one out.
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
	// All four uploads landed inside one debounce window (sequential local
	// uploads are far faster than 250ms); at most a couple of rebuilds may
	// have fired, never one per upload.
	if v := srv.Version(); v >= uploads {
		t.Fatalf("debounce did not coalesce: %d rebuilds for %d uploads", v, uploads)
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

// A full upload and a streaming one from the same site replace each other:
// the server holds whichever came last.
func TestFullAndStreamUploadsReplaceEachOther(t *testing.T) {
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
	pts = append(pts, blob(rng, 30, 0, 200)...)
	m2 := localModelOf(t, "st-mix", pts)
	if _, _, _, err := Exchange(srv.Addr(), m2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !sameModel(t, srv, m2) {
		t.Fatal("the full upload did not replace the streamed model")
	}
	m3 := localModelOf(t, "st-mix", pts[200:])
	res, err := client.Upload(m3, deltaOf(tracker, m3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 2 || !sameModel(t, srv, m3) {
		t.Fatalf("the streaming upload did not replace the full model: %+v", res)
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
