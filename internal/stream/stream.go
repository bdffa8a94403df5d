// Package stream implements the site side of the always-on streaming
// deployment: a Site ingests an unbounded point stream, maintains its local
// clustering over a sliding window with incremental DBSCAN, and uploads its
// local model whenever the clustering has changed considerably since the
// last transmitted state (the paper's Section 4 update policy, measured as
// 1 − P^II against the last transmitted labeling snapshot).
//
// The window is FIFO in arrival order: once it is full, every ingested
// point first evicts the oldest live point. Eviction recycles the evicted
// point's slot (incdbscan free-list reuse), so the site's memory stays
// proportional to the window no matter how long the stream runs.
package stream

import (
	"errors"
	"fmt"

	"github.com/dbdc-go/dbdc/internal/cluster"
	idbdc "github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/incdbscan"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// Uploader ships one model update to the server. *transport.StreamClient is
// the production implementation; tests substitute fakes.
type Uploader interface {
	Upload(full *model.LocalModel, delta *model.LocalDelta, stats *transport.StreamStats) (*transport.UploadResult, error)
}

// Config parameterizes a streaming site.
type Config struct {
	// SiteID identifies the site at the server.
	SiteID string
	// Cluster is the DBDC configuration (local DBSCAN parameters, model
	// kind) the uploads are built under.
	Cluster idbdc.Config
	// Window is the sliding-window size in objects.
	Window int
	// Threshold is the clustering-change level (1 − P^II vs the last
	// transmitted snapshot) above which the site uploads; 0 selects 0.15,
	// the repo's incremental-experiment default.
	Threshold float64
	// CheckEvery is how many ingested points pass between change checks
	// (the check resolves the full labeling, so it is amortized); 0
	// selects 64.
	CheckEvery int
}

const (
	defaultThreshold  = 0.15
	defaultCheckEvery = 64
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.Threshold == 0 {
		out.Threshold = defaultThreshold
	}
	if out.CheckEvery == 0 {
		out.CheckEvery = defaultCheckEvery
	}
	return out
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.SiteID == "" {
		return errors.New("stream: empty site id")
	}
	if c.Window < 1 {
		return fmt.Errorf("stream: window %d, want >= 1", c.Window)
	}
	if c.Threshold < 0 || c.Threshold > 1 {
		return fmt.Errorf("stream: threshold %v outside [0, 1]", c.Threshold)
	}
	if c.CheckEvery < 0 {
		return fmt.Errorf("stream: check interval %d negative", c.CheckEvery)
	}
	return c.Cluster.Validate()
}

// Stats describes a streaming site's progress.
type Stats struct {
	// Ingested and Evicted count stream objects in and out of the window.
	Ingested, Evicted uint64
	// Turns is how often the window content has fully turned over
	// (Evicted / Window).
	Turns uint64
	// Uploads counts successful uploads. Every upload is a delta frame, so
	// DeltaUploads equals Uploads, and none needs a retry, so Resyncs is 0;
	// both fields survive because the repository benchmark (bench/, frozen)
	// reads them.
	Uploads, DeltaUploads, Resyncs uint64
	// LastChange is the change metric at the last upload decision.
	LastChange float64
	// BytesSent and BytesReceived total the wire cost of all uploads.
	BytesSent, BytesReceived int
}

// Site is a streaming DBDC site. Not safe for concurrent use — a site
// ingests its stream sequentially, as a stream arrives.
type Site struct {
	cfg      Config
	inc      *incdbscan.Clusterer
	uploader Uploader

	// ring holds the window's slot ids in arrival order.
	ring  []int
	head  int
	count int

	// snapshot is the labeling at the last successful upload (positional
	// over slots; a recycled slot whose occupant changed cluster reads as
	// change, which is exactly what the policy should see).
	snapshot cluster.Labeling

	tracker *model.DeltaTracker
	pending int // ingests since the last change check
	stats   Stats
}

// NewSite creates a streaming site uploading through up.
func NewSite(cfg Config, up Uploader) (*Site, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if up == nil {
		return nil, errors.New("stream: nil uploader")
	}
	cfg = cfg.withDefaults()
	inc, err := incdbscan.New(cfg.Cluster.Local)
	if err != nil {
		return nil, err
	}
	return &Site{
		cfg:      cfg,
		inc:      inc,
		uploader: up,
		ring:     make([]int, cfg.Window),
		tracker:  model.NewDeltaTracker(),
	}, nil
}

// Stats returns a copy of the site's progress counters.
func (s *Site) Stats() Stats { return s.stats }

// LiveCount returns the number of points currently in the window.
func (s *Site) LiveCount() int { return s.inc.LiveCount() }

// Ingest admits one stream point: evict the oldest live point if the window
// is full, insert the new one, and upload if a change check is due and the
// clustering has drifted past the threshold. An upload failure is returned
// but does not lose the point — the site keeps streaming and retries at the
// next due check.
func (s *Site) Ingest(p geom.Point) error {
	if s.count == s.cfg.Window {
		oldest := s.ring[s.head]
		if err := s.inc.Delete(oldest); err != nil {
			return fmt.Errorf("stream: evicting slot %d: %w", oldest, err)
		}
		s.head = (s.head + 1) % s.cfg.Window
		s.count--
		s.stats.Evicted++
		s.stats.Turns = s.stats.Evicted / uint64(s.cfg.Window)
	}
	idx, err := s.inc.Insert(p)
	if err != nil {
		return err
	}
	s.ring[(s.head+s.count)%s.cfg.Window] = idx
	s.count++
	s.stats.Ingested++
	s.pending++
	if s.pending < s.cfg.CheckEvery {
		return nil
	}
	s.pending = 0
	return s.maybeUpload()
}

// maybeUpload measures the clustering change against the last transmitted
// snapshot and uploads when it is considerable (or nothing was ever sent).
func (s *Site) maybeUpload() error {
	labels := s.inc.Labels()
	if s.snapshot != nil {
		padded, err := idbdc.PadSnapshot(s.snapshot, len(labels))
		if err != nil {
			return err
		}
		change, err := idbdc.ClusteringChange(padded, labels)
		if err != nil {
			return err
		}
		s.stats.LastChange = change
		if change <= s.cfg.Threshold {
			return nil
		}
	} else {
		s.stats.LastChange = 1
	}
	return s.upload(labels)
}

// Flush uploads the current state unconditionally — stream end, orderly
// shutdown.
func (s *Site) Flush() error {
	s.pending = 0
	return s.upload(s.inc.Labels())
}

// slot returns the slot of window position i, oldest first.
func (s *Site) slot(i int) int { return s.ring[(s.head+i)%s.cfg.Window] }

// localModel condenses the live window into the local model LocalStep would
// build over the window's points in arrival order, byte for byte, from what
// the incremental clusterer already knows — its core flags and labels (by
// slot): FromCores over a packed R*-tree of the window, one neighbourhood
// walked per border object and one per specific core, no DBSCAN run.
func (s *Site) localModel(labels cluster.Labeling) (*model.LocalModel, error) {
	dim := 1 // an empty window has no stride to take
	if s.count > 0 {
		dim = s.inc.Point(s.slot(0)).Dim()
	}
	st := geom.NewStore(dim, s.count)
	core := make([]bool, s.count)
	wl := make(cluster.Labeling, s.count)
	for i := range s.count {
		slot := s.slot(i)
		st.Append(s.inc.Point(slot))
		core[i], wl[i] = s.inc.IsCore(slot), labels[slot]
	}
	idx, err := index.BuildStore(index.KindRStar, st, geom.Euclidean{}, s.cfg.Cluster.Local.Eps)
	if err != nil {
		return nil, err
	}
	res, err := dbscan.FromCores(idx, s.cfg.Cluster.Local, core, wl)
	if err != nil {
		return nil, err
	}
	out, err := idbdc.LocalStepClustered(s.cfg.SiteID, st, res, s.cfg.Cluster)
	if err != nil {
		return nil, err
	}
	if checkUpload != nil {
		checkUpload(s.cfg, st, out.Model)
	}
	return out.Model, nil
}

// checkUpload is set by the dbdc_debugchecks build (checks_debug.go).
var checkUpload func(cfg Config, st *geom.Store, m *model.LocalModel)

// upload condenses the local model over the live window and ships it.
func (s *Site) upload(labels cluster.Labeling) error {
	m, err := s.localModel(labels)
	if err != nil {
		return err
	}
	stats := &transport.StreamStats{
		Window: s.cfg.Window,
		Turns:  s.stats.Turns,
		Change: s.stats.LastChange,
	}
	delta := s.tracker.Delta(m)
	res, err := s.uploader.Upload(m, delta, stats)
	if err != nil {
		return err
	}
	s.stats.BytesSent += res.BytesSent
	s.stats.BytesReceived += res.BytesReceived
	s.tracker.Commit(delta)
	s.snapshot = labels
	s.stats.Uploads++
	s.stats.DeltaUploads++
	return nil
}

// Run ingests the whole stream from src (in order) and flushes at the end.
// A point that fails to ingest aborts the run; upload failures inside
// Ingest abort as well — the caller owns retry policy at this level.
func (s *Site) Run(src <-chan geom.Point) error {
	for p := range src {
		if err := s.Ingest(p); err != nil {
			return err
		}
	}
	return s.Flush()
}
