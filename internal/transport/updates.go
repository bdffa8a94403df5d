package transport

import (
	"errors"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// UpdateServer is the long-running variant of the DBDC server for
// incremental and streaming deployments: sites connect whenever their local
// clustering has changed considerably (cf. Section 4 of the paper and the
// incremental DBSCAN site mode) and upload either a full local model
// (MsgLocalModelTimed — answered with the rebuilt global model) or a
// streaming one (MsgModelDelta — answered with a MsgDeltaAck, with the
// global rebuild optionally debounced; see SetDebounce). Either replaces the
// site's entry in the per-site model table. Stale models of silent sites stay
// in effect — the server never has to wait for all sites.
//
// Global cluster ids are stable across rebuilds: every rebuilt model is
// relabeled by representative overlap against its predecessor
// (model.ClusterMatcher), so classify clients see coherent ids while the
// clustering churns underneath them.
type UpdateServer struct {
	uploadEndpoint

	cfg      dbdc.Config
	timeout  time.Duration
	loop     *ConnLoop
	debounce time.Duration

	mu     sync.Mutex
	models map[string]*model.LocalModel
	// streams retains the latest stream-progress section per streaming
	// site, informational.
	streams map[string]StreamStats
	global  *model.GlobalModel
	stable  *model.ClusterMatcher
	// version counts completed global rebuilds; the delta ack carries it.
	version uint64
	// dirty/rebuildPending/closed drive the debounced rebuild; rebuildErr
	// records the outcome of the last (possibly asynchronous) rebuild.
	dirty          bool
	rebuildPending bool
	closed         bool
	rebuildErr     error

	// onGlobal, when set, receives every rebuilt global model (see
	// SetOnGlobal).
	onGlobal func(*model.GlobalModel)
}

// SetOnGlobal registers a sink that receives every rebuilt global model,
// invoked under the store lock so sinks observe the rebuilds in exactly
// the order they happened (a model registry fed from here is therefore
// monotonically versioned). Keep the callback fast — it serializes with
// concurrent updates. Set it once, before Serve.
func (s *UpdateServer) SetOnGlobal(fn func(*model.GlobalModel)) { s.onGlobal = fn }

// SetDebounce sets the rebuild debounce for delta uploads: uploads arriving
// within d of each other coalesce into one global rebuild, so a burst of
// streaming sites does not trigger a GlobalStep per delta. 0 (the default)
// rebuilds synchronously on every delta upload. Full-model uploads always rebuild
// synchronously — their reply is the rebuilt global model. Set it once,
// before Serve.
func (s *UpdateServer) SetDebounce(d time.Duration) { s.debounce = d }

// Version returns the number of completed global rebuilds.
func (s *UpdateServer) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// WaitVersion blocks until the rebuild counter reaches v or the timeout
// expires, reporting whether it did. Intended for tests and orderly
// shutdown around debounced rebuilds.
func (s *UpdateServer) WaitVersion(v uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if s.Version() >= v {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Flush forces a pending debounced rebuild to run now. It returns the
// rebuild error, or nil when nothing was pending.
func (s *UpdateServer) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty || s.closed {
		return nil
	}
	s.dirty = false
	_, err := s.rebuildLocked()
	return err
}

// LastRebuildErr returns the error of the most recent global rebuild (nil
// after a successful one). Debounced rebuilds have no connection to report
// their failure to; this surfaces it.
func (s *UpdateServer) LastRebuildErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rebuildErr
}

// StreamInfo returns the latest stream-progress section the given site
// attached to a delta upload, if any.
func (s *UpdateServer) StreamInfo(siteID string) (StreamStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.streams[siteID]
	return st, ok
}

// NewUpdateServer listens on addr for model updates.
func NewUpdateServer(addr string, cfg dbdc.Config, timeout time.Duration) (*UpdateServer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	loop, err := Listen(addr)
	if err != nil {
		return nil, err
	}
	return &UpdateServer{
		cfg:     cfg,
		timeout: IOTimeout(timeout),
		loop:    loop,
		models:  make(map[string]*model.LocalModel),
		streams: make(map[string]StreamStats),
		stable:  model.NewClusterMatcher(),
	}, nil
}

// Addr returns the listen address.
func (s *UpdateServer) Addr() string { return s.loop.Addr() }

// Close stops accepting, closes every open connection, waits for the
// handlers and cancels any pending debounced rebuild.
func (s *UpdateServer) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.loop.Close()
}

// Sites returns the ids of the sites whose models are currently retained,
// sorted.
func (s *UpdateServer) Sites() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.models))
	for id := range s.models {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Global returns the latest global model, or nil before the first update.
func (s *UpdateServer) Global() *model.GlobalModel {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.global
}

// Serve handles updates until Close or until maxUpdates updates have been
// processed (0 = unlimited), and returns nil then; an accept failure ends
// it with the error. Each connection carries one update; connections are
// handled concurrently, the model store and global rebuild are serialized.
func (s *UpdateServer) Serve(maxUpdates int) error {
	return s.loop.Serve(maxUpdates, s.handleUpdate)
}

// handleUpdate processes one site connection: read the upload, store it,
// reply.
func (s *UpdateServer) handleUpdate(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(s.timeout))
	up, err := s.readUpload(conn, true)
	if err != nil {
		// A corrupt frame is a protocol-level failure the site can act
		// on (resend); tell it instead of silently hanging up. Refused
		// uploads were answered by readUpload; I/O errors get no reply —
		// the conn is gone anyway.
		if errors.Is(err, ErrChecksum) || errors.Is(err, ErrFrameVersion) {
			s.reply(conn, MsgError, []byte(err.Error()))
		}
		return
	}
	if up.delta != nil {
		s.handleDelta(conn, up.delta, up.sections.stream)
		return
	}
	// A full model: store, synchronous rebuild, global model reply.
	global, err := s.storeAndRebuild(up.model)
	if err != nil {
		s.reply(conn, MsgError, []byte(err.Error()))
		return
	}
	reply, err := global.MarshalBinary()
	if err != nil {
		s.reply(conn, MsgError, []byte(err.Error()))
		return
	}
	s.reply(conn, MsgGlobalModel, reply)
}

// handleDelta stores one streaming upload's model and acks it. The global
// rebuild is debounced (SetDebounce), so the ack does not wait for a
// GlobalStep.
func (s *UpdateServer) handleDelta(conn net.Conn, d *model.LocalDelta, stats *StreamStats) {
	s.mu.Lock()
	s.models[d.Model.SiteID] = d.Model
	if stats != nil {
		s.streams[d.Model.SiteID] = *stats
	}
	s.scheduleRebuildLocked()
	ack := DeltaAck{Seq: d.Seq, GlobalVersion: s.version}
	s.mu.Unlock()
	s.reply(conn, MsgDeltaAck, encodeDeltaAck(ack))
}

// storeAndRebuild replaces the site's model and recomputes the global
// model from the newest model of every site.
func (s *UpdateServer) storeAndRebuild(m *model.LocalModel) (*model.GlobalModel, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.models[m.SiteID] = m
	return s.rebuildLocked()
}

// rebuildLocked recomputes the global model from the newest model of every
// site, relabels it for stable cluster ids and publishes it. Caller holds
// s.mu.
func (s *UpdateServer) rebuildLocked() (*model.GlobalModel, error) {
	ids := make([]string, 0, len(s.models))
	for id := range s.models {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic global clustering order
	all := make([]*model.LocalModel, 0, len(ids))
	for _, id := range ids {
		all = append(all, s.models[id])
	}
	global, err := dbdc.GlobalStep(all, s.cfg)
	if err != nil {
		s.rebuildErr = err
		return nil, err
	}
	if !global.Empty() {
		// An empty rebuild (all reps churned out mid-turn) keeps the
		// matcher's history so clusters reappearing next version can still
		// claim their ids.
		s.stable.RelabelGlobal(global)
	}
	s.global = global
	s.version++
	s.rebuildErr = nil
	if s.onGlobal != nil {
		// Under s.mu: sinks see rebuilds in rebuild order, which keeps a
		// registry fed from here strictly monotone.
		s.onGlobal(global)
	}
	return global, nil
}

// scheduleRebuildLocked requests a global rebuild after a streaming upload.
// With no debounce it runs immediately; otherwise uploads arriving within
// the debounce window coalesce into one rebuild. Caller holds s.mu.
func (s *UpdateServer) scheduleRebuildLocked() {
	if s.debounce <= 0 {
		s.rebuildLocked()
		return
	}
	s.dirty = true
	if s.rebuildPending || s.closed {
		return
	}
	s.rebuildPending = true
	time.AfterFunc(s.debounce, s.flushRebuild)
}

// flushRebuild is the debounce timer callback: run the coalesced rebuild if
// one is still wanted.
func (s *UpdateServer) flushRebuild() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rebuildPending = false
	if s.dirty && !s.closed {
		s.dirty = false
		s.rebuildLocked()
	}
}
