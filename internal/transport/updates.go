package transport

import (
	"errors"
	"fmt"
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
// streaming delta (MsgModelDelta — folded into the per-site
// model table and answered with a MsgDeltaAck, with the global rebuild
// optionally debounced; see SetDebounce). Stale models of silent sites stay
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
	ln       net.Listener
	debounce time.Duration

	mu     sync.Mutex
	models map[string]*model.LocalModel
	folds  map[string]*model.DeltaFolder
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

// SetDebounce sets the rebuild debounce for delta uploads: folds arriving
// within d of each other coalesce into one global rebuild, so a burst of
// streaming sites does not trigger a GlobalStep per delta. 0 (the default)
// rebuilds synchronously on every fold. Full-model uploads always rebuild
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
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	return &UpdateServer{
		cfg:     cfg,
		timeout: timeout,
		ln:      ln,
		models:  make(map[string]*model.LocalModel),
		folds:   make(map[string]*model.DeltaFolder),
		streams: make(map[string]StreamStats),
		stable:  model.NewClusterMatcher(),
	}, nil
}

// Addr returns the listen address.
func (s *UpdateServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections and cancels any pending debounced
// rebuild.
func (s *UpdateServer) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.ln.Close()
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

// Serve handles updates until the listener closes (use Close to stop) or
// maxUpdates updates have been processed (0 = unlimited). Each connection
// carries one update; connections are handled concurrently, the model
// store and global rebuild are serialized.
func (s *UpdateServer) Serve(maxUpdates int) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for done := 0; maxUpdates == 0 || done < maxUpdates; done++ {
		conn, err := s.ln.Accept()
		if err != nil {
			if maxUpdates == 0 {
				return nil // closed: normal shutdown
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			s.handleUpdate(conn)
		}(conn)
	}
	return nil
}

// handleUpdate processes one site connection: read the upload, fold or
// store it, reply.
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

// handleDelta folds one streaming delta and acks it. The global rebuild is
// debounced (SetDebounce), so the ack does not wait for a GlobalStep.
func (s *UpdateServer) handleDelta(conn net.Conn, d *model.LocalDelta, stats *StreamStats) {
	s.mu.Lock()
	f := s.folds[d.SiteID]
	if f == nil {
		f = model.NewDeltaFolder()
		s.folds[d.SiteID] = f
	}
	var ack DeltaAck
	if err := f.Apply(d); err != nil {
		if !errors.Is(err, model.ErrDeltaBase) {
			s.mu.Unlock()
			s.reply(conn, MsgError, []byte(err.Error()))
			return
		}
		// Sequence mismatch: demand a snapshot. The folded state is
		// unchanged, so nothing to rebuild.
		ack = DeltaAck{Resync: true, Seq: f.Seq(), GlobalVersion: s.version}
	} else {
		s.models[d.SiteID] = f.Model()
		if stats != nil {
			s.streams[d.SiteID] = *stats
		}
		s.scheduleRebuildLocked()
		ack = DeltaAck{Seq: d.Seq, GlobalVersion: s.version}
	}
	s.mu.Unlock()
	s.reply(conn, MsgDeltaAck, encodeDeltaAck(ack))
}

// storeAndRebuild replaces the site's model and recomputes the global
// model from the newest model of every site. A full upload supersedes any
// folded delta state for the site: the folder is dropped, so a later delta
// from the same site gets a resync demand instead of applying against a
// stale base.
func (s *UpdateServer) storeAndRebuild(m *model.LocalModel) (*model.GlobalModel, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.models[m.SiteID] = m
	delete(s.folds, m.SiteID)
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

// scheduleRebuildLocked requests a global rebuild after a delta fold. With
// no debounce it runs immediately; otherwise folds arriving within the
// debounce window coalesce into one rebuild. Caller holds s.mu.
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
