package stream

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/data"
	idbdc "github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/transport"
)

func testCfg(window int) Config {
	return Config{
		SiteID:     "st",
		Cluster:    idbdc.Config{Local: dbscan.Params{Eps: 0.5, MinPts: 5}},
		Window:     window,
		Threshold:  0.15,
		CheckEvery: 20,
	}
}

// upload is one recorded fake-uploader call.
type upload struct {
	full  *model.LocalModel
	delta *model.LocalDelta
	stats *transport.StreamStats
}

type respond func(*upload) (*transport.UploadResult, error)

func ack(u *upload) (*transport.UploadResult, error) {
	return &transport.UploadResult{Mode: transport.ModeDelta, Seq: u.delta.Seq}, nil
}

// fakeUploader records uploads and replays scripted results: entries of
// script are consumed one per call, after which every call gets ack.
type fakeUploader struct {
	calls  []upload
	script []respond
}

func (f *fakeUploader) Upload(full *model.LocalModel, delta *model.LocalDelta, stats *transport.StreamStats) (*transport.UploadResult, error) {
	u := upload{full: full, delta: delta, stats: stats}
	f.calls = append(f.calls, u)
	if len(f.script) > 0 {
		fn := f.script[0]
		f.script = f.script[1:]
		return fn(&u)
	}
	return ack(&u)
}

// feed ingests n points drawn around center, failing the test on error.
func feed(t *testing.T, site *Site, rng *rand.Rand, center geom.Point, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := site.Ingest(data.Blob(rng, center, 0.25, 1)[0]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"empty site":    func(c *Config) { c.SiteID = "" },
		"zero window":   func(c *Config) { c.Window = 0 },
		"threshold > 1": func(c *Config) { c.Threshold = 1.5 },
		"negative chk":  func(c *Config) { c.CheckEvery = -1 },
		"bad cluster":   func(c *Config) { c.Cluster.Local.MinPts = 0 },
	} {
		cfg := testCfg(100)
		mutate(&cfg)
		if _, err := NewSite(cfg, &fakeUploader{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewSite(testCfg(100), nil); err == nil {
		t.Error("nil uploader accepted")
	}
}

// The window is a strict FIFO bound: live points never exceed it, and the
// turn counter tracks full turnovers.
// A stream that changes dimensionality is refused with the tree's error, also
// when the eviction before the insert has just emptied the window.
func TestIngestDimensionalityChange(t *testing.T) {
	site, err := NewSite(testCfg(1), &fakeUploader{})
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Ingest(geom.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	const want = "rstar: point dimensionality 3, tree has 2"
	if err := site.Ingest(geom.Point{0, 0, 0}); err == nil || err.Error() != want {
		t.Fatalf("3-d point on a 2-d stream: %v, want %q", err, want)
	}
	if err := site.Ingest(geom.Point{1, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const window = 60
	site, err := NewSite(testCfg(window), &fakeUploader{})
	if err != nil {
		t.Fatal(err)
	}
	total := 3 * window
	for i := 0; i < total; i++ {
		if err := site.Ingest(data.Blob(rng, geom.Point{0, 0}, 0.25, 1)[0]); err != nil {
			t.Fatal(err)
		}
		if got := site.LiveCount(); got > window {
			t.Fatalf("live %d exceeds window %d", got, window)
		}
	}
	st := site.Stats()
	if site.LiveCount() != window {
		t.Fatalf("final live %d, want %d", site.LiveCount(), window)
	}
	if st.Ingested != uint64(total) || st.Evicted != uint64(total-window) {
		t.Fatalf("ingested %d evicted %d", st.Ingested, st.Evicted)
	}
	if st.Turns != uint64((total-window)/window) {
		t.Fatalf("turns %d", st.Turns)
	}
}

// During warmup the clustering grows — considerable change, uploads. Once
// the window is full and the stream stationary, the change policy goes
// quiet: sliding a window over the same distribution is not considerable
// change.
func TestStationaryStreamGoesQuiet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	up := &fakeUploader{}
	site, err := NewSite(testCfg(100), up)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, site, rng, geom.Point{0, 0}, 100) // warmup: window fills
	warm := site.Stats().Uploads
	if warm == 0 {
		t.Fatal("no upload during warmup: the server never heard of the site")
	}
	feed(t, site, rng, geom.Point{0, 0}, 500) // 5 window turns, same blob
	steady := site.Stats().Uploads - warm
	if steady > 2 {
		t.Fatalf("stationary stream kept uploading: %d uploads over 5 turns", steady)
	}
	first := up.calls[0]
	if first.delta == nil || !first.delta.Snapshot() {
		t.Fatal("first upload is not a snapshot delta")
	}
	if first.stats == nil || first.stats.Window != 100 {
		t.Fatalf("stream stats not attached: %+v", first.stats)
	}
}

// Distribution shifts trigger uploads, and the deltas chain: consecutive
// sequence numbers, incremental after the first.
func TestShiftTriggersChainedDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	up := &fakeUploader{}
	site, err := NewSite(testCfg(100), up)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []geom.Point{{0, 0}, {10, 10}, {20, 0}} {
		feed(t, site, rng, c, 200)
	}
	if st := site.Stats(); st.Uploads < 3 || st.Uploads != st.DeltaUploads {
		t.Fatalf("3 distribution shifts: %+v", st)
	}
	for i, call := range up.calls {
		if call.delta == nil {
			t.Fatalf("upload %d without delta", i)
		}
		if want := uint64(i + 1); call.delta.Seq != want {
			t.Fatalf("upload %d has seq %d, want %d", i, call.delta.Seq, want)
		}
		if i > 0 && call.delta.Snapshot() {
			t.Fatalf("upload %d degenerated to a snapshot", i)
		}
	}
}

// Flush uploads unconditionally, even when the change policy would not.
func TestFlushUploadsUnconditionally(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	up := &fakeUploader{}
	site, err := NewSite(testCfg(100), up)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, site, rng, geom.Point{0, 0}, 200)
	before := site.Stats().Uploads
	if err := site.Flush(); err != nil {
		t.Fatal(err)
	}
	if site.Stats().Uploads != before+1 {
		t.Fatal("Flush did not upload")
	}
	last := up.calls[len(up.calls)-1].delta
	if last.Seq != uint64(len(up.calls)) {
		t.Fatalf("flush delta seq %d breaks the chain of %d uploads", last.Seq, len(up.calls))
	}
}

// A resync demand makes the site retry with a snapshot on the spot.
func TestResyncRetriesWithSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	up := &fakeUploader{}
	site, err := NewSite(testCfg(100), up)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, site, rng, geom.Point{0, 0}, 200) // chain established
	up.script = []respond{func(u *upload) (*transport.UploadResult, error) {
		return &transport.UploadResult{Mode: transport.ModeDelta, Resync: true}, nil
	}}
	calls := len(up.calls)
	if err := site.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(up.calls) - calls; got != 2 {
		t.Fatalf("%d uploads for the resync round, want 2 (rejected, snapshot retry)", got)
	}
	retry := up.calls[len(up.calls)-1].delta
	if !retry.Snapshot() || retry.Seq != 1 {
		t.Fatalf("retry is not a fresh snapshot: base %d seq %d", retry.BaseSeq, retry.Seq)
	}
	if st := site.Stats(); st.Resyncs != 1 {
		t.Fatalf("stats after resync: %+v", st)
	}
	// The re-established chain continues from the snapshot.
	if err := site.Flush(); err != nil {
		t.Fatal(err)
	}
	if next := up.calls[len(up.calls)-1].delta; next.Snapshot() || next.Seq != 2 {
		t.Fatalf("post-resync delta: base %d seq %d", next.BaseSeq, next.Seq)
	}
}

// An upload fault leaves the tracker uncommitted: the retry re-derives the
// same sequence number, so the server never sees a gap.
func TestUploadFaultDoesNotAdvanceChain(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	fault := errors.New("server unreachable")
	up := &fakeUploader{}
	site, err := NewSite(testCfg(100), up)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, site, rng, geom.Point{0, 0}, 200)
	uploads := site.Stats().Uploads
	up.script = []respond{func(u *upload) (*transport.UploadResult, error) {
		return nil, fault
	}}
	if err := site.Flush(); !errors.Is(err, fault) {
		t.Fatalf("Flush swallowed the fault: %v", err)
	}
	if st := site.Stats(); st.Uploads != uploads {
		t.Fatalf("failed upload counted: %d → %d", uploads, st.Uploads)
	}
	if err := site.Flush(); err != nil {
		t.Fatal(err)
	}
	n := len(up.calls)
	if failed, retry := up.calls[n-2].delta, up.calls[n-1].delta; retry.Seq != failed.Seq {
		t.Fatalf("failed upload advanced the chain: seq %d then %d", failed.Seq, retry.Seq)
	}
}

// Run drains a channel and flushes.
func TestRunDrainsAndFlushes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	up := &fakeUploader{}
	site, err := NewSite(testCfg(50), up)
	if err != nil {
		t.Fatal(err)
	}
	src := make(chan geom.Point, 120)
	for i := 0; i < 120; i++ {
		src <- data.Blob(rng, geom.Point{0, 0}, 0.25, 1)[0]
	}
	close(src)
	if err := site.Run(src); err != nil {
		t.Fatal(err)
	}
	st := site.Stats()
	if st.Ingested != 120 || st.Uploads < 1 {
		t.Fatalf("after Run: %+v", st)
	}
}
