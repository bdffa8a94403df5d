package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/incdbscan"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/serve"
	"github.com/dbdc-go/dbdc/internal/stream"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// The stream is periodic, and a lap ingests one period. Three anchor
// clusters (uniform discs, so no Gaussian tail flickers between noise and
// border) sit in a row, their edges 1.1 apart: more than the 2*Eps a
// representative's range can reach, so neither a site nor the server ever
// joins two of them unaided. Twice per
// period a mover lays a short chain of points across a gap and the two
// anchors beside it merge; a window later the chain is evicted and they
// split again. A merge or a split moves 1 - P^II by 0.25 to 0.4, far past
// the site's 0.15 threshold, and nothing else moves it by more than a few
// hundredths, so every seed uploads exactly four deltas per period: the
// byte metrics then vary with the representatives a seed happens to draw,
// not with how often a marginal change crosses the threshold.
//
// The period is twice the window, so the window's content really turns
// over (a period that divides the window would keep every point of the
// period in the window at all times and nothing would ever change).
// Between laps the harness flushes the site, untimed; every lap therefore
// starts from the same window and the same transmitted snapshot, does the
// same uploads and ships the same bytes.
const (
	streamWindow = 512
	streamPeriod = 2 * streamWindow
	streamCheck  = 64

	// Of every streamCycle points twelve go to the anchors in turn, three
	// are background noise and one is the mover's.
	streamCycle  = 16
	anchorRadius = 1.4
	anchorPitch  = 2*anchorRadius + 1.1 // centre to centre
	// A bridge is bridgePoints evenly spaced points reaching bridgeReach
	// into both anchors. The first starts bridge01At mover points into the
	// period, the second bridge12At: far enough apart that the two merges
	// and the two splits fall into four different change checks, none of
	// them next to the lap boundary.
	bridgePoints = 10
	bridgeReach  = 0.3
	bridge01At   = 2
	bridge12At   = 18
)

var streamParams = dbscan.Params{Eps: 0.5, MinPts: 5}

// streamPoints draws one period.
func streamPoints(seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	jitter := func(width float64) float64 { return (rng.Float64() - 0.5) * width }
	pts := make([]geom.Point, streamPeriod)
	for i := range pts {
		k, mover := i%streamCycle, i/streamCycle
		switch {
		case k < 12:
			// Uniform over the disc of anchor k%3.
			a, r := 2*math.Pi*rng.Float64(), anchorRadius*math.Sqrt(rng.Float64())
			pts[i] = geom.Point{float64(k%3)*anchorPitch + r*math.Cos(a), r * math.Sin(a)}
		case k == streamCycle-1 && mover >= bridge01At && mover < bridge01At+bridgePoints:
			pts[i] = bridgePoint(0, mover-bridge01At, jitter)
		case k == streamCycle-1 && mover >= bridge12At && mover < bridge12At+bridgePoints:
			pts[i] = bridgePoint(1, mover-bridge12At, jitter)
		default:
			// Background, and the mover between bridges: sparse enough
			// that no five of them ever share an Eps-disc.
			pts[i] = geom.Point{-10 + 25*rng.Float64(), 4 + 20*rng.Float64()}
		}
	}
	return pts
}

// bridgePoint is the j-th point of the chain across the gap right of the
// given anchor.
func bridgePoint(anchor, j int, jitter func(float64) float64) geom.Point {
	from := float64(anchor)*anchorPitch + anchorRadius - bridgeReach
	length := anchorPitch - 2*anchorRadius + 2*bridgeReach
	return geom.Point{from + length*float64(j)/(bridgePoints-1) + jitter(0.04), jitter(0.1)}
}

// timedUploader is the stream.Uploader the site uploads through: the
// production client with a span around each call.
type timedUploader struct {
	inner *transport.StreamClient
	tr    *tracer
	// open is the upload span in flight; the server's publish, which runs
	// on a connection goroutine while the upload waits for its ack, hangs
	// its span under it.
	open atomic.Int32

	deltaUploads, deltaBytes int
}

func (u *timedUploader) Upload(full *model.LocalModel, delta *model.LocalDelta, stats *transport.StreamStats) (*transport.UploadResult, error) {
	sp := u.tr.begin("transport.stream_upload")
	u.open.Store(sp)
	res, err := u.inner.Upload(full, delta, stats)
	u.tr.end(sp)
	if err == nil && res.Mode == transport.ModeDelta {
		u.deltaUploads++
		u.deltaBytes += delta.EncodedSize()
	}
	return res, err
}

// streamChurn is the always-on deployment: one streaming site uploading
// deltas to an update server that rebuilds the global model synchronously
// and publishes every rebuild to a serving registry.
type streamChurn struct {
	p      params
	cfg    dbdc.Config
	period []geom.Point
	genDur time.Duration

	srv       *transport.UpdateServer
	serveDone chan error
	reg       *serve.Registry
	up        *timedUploader
	site      *stream.Site
	tracing   atomic.Pointer[tracer]
	rebuilds  atomic.Int64
	pubErr    atomic.Pointer[error]

	// The timed region of the latest lap, for the layer counts.
	lapStats    stream.Stats
	lapRebuilds int64
	served      cluster.Labeling
}

func newStreamChurn(p params) *streamChurn {
	return &streamChurn{p: p, cfg: dbdc.Config{Local: streamParams}}
}

func (w *streamChurn) shape() (int, float64) { return streamPeriod, 1 }

func (w *streamChurn) window() []geom.Point { return w.period[streamPeriod-streamWindow:] }

func (w *streamChurn) setup() error {
	genStart := time.Now()
	w.period = streamPoints(w.p.seed)
	w.genDur = time.Since(genStart)

	srv, err := transport.NewUpdateServer("127.0.0.1:0", w.cfg, ioTimeout)
	if err != nil {
		return err
	}
	w.srv = srv
	// Rebuild before the ack: versions, bytes and labels then repeat
	// exactly, where a debounce timer would race the next upload.
	srv.SetDebounce(0)
	w.reg = serve.NewRegistry("")
	srv.SetOnGlobal(func(g *model.GlobalModel) {
		done := w.tracing.Load().async("serve.publish", w.up.open.Load())
		_, err := w.reg.Publish(g)
		done()
		if err != nil {
			w.pubErr.CompareAndSwap(nil, &err)
		}
		w.rebuilds.Add(1)
	})
	w.serveDone = make(chan error, 1)
	go func() { w.serveDone <- srv.Serve(0) }()

	w.up = &timedUploader{inner: &transport.StreamClient{Addr: srv.Addr(), Timeout: ioTimeout}}
	w.up.open.Store(-1)
	w.site, err = stream.NewSite(stream.Config{
		SiteID: "stream-0", Cluster: w.cfg, Window: streamWindow, CheckEvery: streamCheck,
	}, w.up)
	if err != nil {
		return err
	}
	// The warm-up lap also fills the window.
	_, err = w.lap(nil)
	return err
}

func (w *streamChurn) close() error {
	if w.srv == nil {
		return nil
	}
	err := w.srv.Close()
	<-w.serveDone
	return err
}

func (w *streamChurn) lap(tr *tracer) (lapOut, error) {
	var out lapOut
	w.tracing.Store(tr)
	w.up.tr = tr
	before, rebuilds := w.site.Stats(), w.rebuilds.Load()
	root := tr.beginLap()
	start := time.Now()
	// One segment per change check: 64 points, then the site's decision.
	for from := 0; from < streamPeriod; from += streamCheck {
		segStart := time.Now()
		for _, pt := range w.period[from : from+streamCheck] {
			sp := tr.begin("stream.ingest")
			err := w.site.Ingest(pt)
			tr.end(sp)
			if err != nil {
				tr.end(root)
				return out, err
			}
		}
		out.segs = append(out.segs, time.Since(segStart))
	}
	out.dur = time.Since(start)
	tr.end(root)
	after := w.site.Stats()
	out.up = int64(after.BytesSent - before.BytesSent)
	out.down = int64(after.BytesReceived - before.BytesReceived)
	w.lapStats = stream.Stats{
		Uploads:      after.Uploads - before.Uploads,
		DeltaUploads: after.DeltaUploads - before.DeltaUploads,
		Resyncs:      after.Resyncs - before.Resyncs,
	}
	w.lapRebuilds = w.rebuilds.Load() - rebuilds

	// Untimed from here: bring the site to the state every lap starts
	// from, then check what the registry serves for the window.
	w.tracing.Store(nil)
	w.up.tr = nil
	if err := w.site.Flush(); err != nil {
		return out, err
	}
	if e := w.pubErr.Load(); e != nil {
		return out, *e
	}
	if r := w.site.Stats().Resyncs; r != 0 {
		return out, fmt.Errorf("%d resyncs: the server lost the site's delta chain", r)
	}
	window := w.window()
	want, err := dbdc.Relabel(window, w.srv.Global())
	if err != nil {
		return out, err
	}
	served := make(cluster.Labeling, len(window))
	if err := w.reg.Current().Classifier.ClassifyBatch(window, served); err != nil {
		return out, err
	}
	for i := range want {
		if want[i] != served[i] {
			return out, fmt.Errorf("registry serves label %d for window point %d, relabelling against the server's model gives %d", served[i], i, want[i])
		}
	}
	w.served = served
	out.hash = hashLabels(served)
	return out, nil
}

// reference scores the served labels of the window against a central
// DBSCAN over the same points.
func (w *streamChurn) reference(lapOut) (float64, error) {
	st, err := geom.FromPoints(w.window())
	if err != nil {
		return 0, err
	}
	return centralQuality(st, streamParams, w.served)
}

func (w *streamChurn) probes(tr *tracer, m metrics) error {
	m["data.generate_ms"] = ms(w.genDur)
	window := w.window()
	st, err := geom.FromPoints(window)
	if err != nil {
		return err
	}
	if err := probeCluster(tr, []*geom.Store{st}, w.cfg, 30, m); err != nil {
		return err
	}
	// What an upload costs the site before a byte moves: the batch local
	// step over the window.
	var local *dbdc.LocalOutcome
	if m["dbdc.local_ms"], err = timeProbe(tr, "dbdc.local", 30, func() (err error) {
		local, err = dbdc.LocalStep("stream-0", window, w.cfg)
		return err
	}); err != nil {
		return err
	}
	m["dbdc.condense_ms"] = ms(local.Timings.Condense)
	locals := []*model.LocalModel{local.Model}
	if err := probeGlobal(tr, locals, w.cfg, m); err != nil {
		return err
	}
	global := w.srv.Global()
	if err := probeCodecs(tr, locals, global, m); err != nil {
		return err
	}
	if m["dbdc.relabel_ms"], err = timeProbe(tr, "dbdc.relabel", 30, func() error {
		_, err := dbdc.Relabel(window, global)
		return err
	}); err != nil {
		return err
	}
	return w.probeIncremental(local.Model, m)
}

// probeIncremental feeds a shadow incdbscan.Clusterer the site's own
// sequence, window eviction included, and times every insert and delete.
// On the shadow's final window it then prices the rest of what the site
// does around them, its policy: one change check, and what one upload
// takes on top of the batch local step before a byte moves.
func (w *streamChurn) probeIncremental(local *model.LocalModel, m metrics) error {
	inc, err := incdbscan.New(streamParams)
	if err != nil {
		return err
	}
	const turns = 20
	ring := make([]int, 0, streamWindow)
	inserts, deletes := make([]float64, 0, turns), make([]float64, 0, turns)
	for t := 0; t <= turns; t++ {
		var ins, del time.Duration
		for _, pt := range w.period {
			if len(ring) == streamWindow {
				start := time.Now()
				err := inc.Delete(ring[0])
				del += time.Since(start)
				if err != nil {
					return err
				}
				ring = ring[1:]
			}
			start := time.Now()
			slot, err := inc.Insert(pt)
			ins += time.Since(start)
			if err != nil {
				return err
			}
			ring = append(ring, slot)
		}
		if t > 0 { // the first period fills the window
			inserts = append(inserts, 1000*ms(ins)/streamPeriod)
			deletes = append(deletes, 1000*ms(del)/streamPeriod)
		}
	}
	m["incdbscan.insert_us"] = fastMean(inserts)
	m["incdbscan.delete_us"] = fastMean(deletes)

	snapshot := inc.Labels()
	checks, preps := make([]float64, 100), make([]float64, 100)
	for r := range checks {
		start := time.Now()
		labels := inc.Labels()
		padded, err := dbdc.PadSnapshot(snapshot, len(labels))
		if err != nil {
			return err
		}
		if _, err := dbdc.ClusteringChange(padded, labels); err != nil {
			return err
		}
		checks[r] = ms(time.Since(start))

		start = time.Now()
		model.NewClusterMatcher().RelabelLocal(local)
		model.NewDeltaTracker().Delta(local)
		preps[r] = ms(time.Since(start))
	}
	// Per 1000 ingested points: a check every streamCheck points, and per
	// upload the local step over the window plus the delta's preparation.
	uploadsPerKpoint := 1000 * float64(w.lapStats.Uploads) / streamPeriod
	m["stream.policy_self_ms"] = 1000/float64(streamCheck)*fastMean(checks) +
		uploadsPerKpoint*(m["dbdc.local_ms"]+fastMean(preps))
	return nil
}

func (w *streamChurn) layers(p meanProfile, m metrics) {
	ingestMs := p.self["stream.ingest"] + p.self["transport.stream_upload"]
	m["stream.ingest_us"] = 1000 * ingestMs / streamPeriod
	m["transport.stream_upload_ms"] = p.perCall("transport.stream_upload")
	m["stream.uploads"] = float64(w.lapStats.Uploads)
	m["stream.delta_uploads"] = float64(w.lapStats.DeltaUploads)
	m["stream.resyncs"] = float64(w.lapStats.Resyncs)
	m["transport.rebuilds"] = float64(w.lapRebuilds)
	m["serve.publish_ms"] = p.async["serve.publish"]
	m["serve.swaps"] = float64(w.lapRebuilds)
	if w.up.deltaUploads > 0 {
		m["model.delta_bytes"] = float64(w.up.deltaBytes) / float64(w.up.deltaUploads)
	}
}
