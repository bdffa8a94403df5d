package transport

import (
	"errors"
	"net"
	"time"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// UpdateServer is the DBDC server under the update trigger, for incremental
// and streaming deployments: sites connect whenever their local clustering
// has changed considerably (cf. Section 4 of the paper and the incremental
// DBSCAN site mode) and upload either a full local model
// (MsgLocalModelTimed — answered with the rebuilt global model) or a
// streaming one (MsgModelDelta — answered with a MsgDeltaAck, with the
// global rebuild optionally debounced; see SetDebounce). A streaming site
// keeps its connection: the server answers its uploads on it one after the
// other until the site closes it or it sits idle past the server timeout.
// Either upload replaces the site's entry in the model table, unless the
// table already holds a newer one (see handleUpdate). Stale models of silent
// sites stay in effect — the server never has to wait for all sites.
//
// Global cluster ids are stable across rebuilds (see collector), so classify
// clients see coherent ids while the clustering churns underneath them.
type UpdateServer struct {
	collector

	debounce time.Duration
	// dirty and rebuildPending drive the debounced rebuild; rebuildErr
	// records the outcome of the last (possibly asynchronous) rebuild. All
	// under mu.
	dirty          bool
	rebuildPending bool
	rebuildErr     error
}

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
	if !s.dirty || s.loop.closed() {
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
	if st := s.entries[siteID].sections.stream; st != nil {
		return *st, true
	}
	return StreamStats{}, false
}

// NewUpdateServer listens on addr for model updates.
func NewUpdateServer(addr string, cfg dbdc.Config, timeout time.Duration) (*UpdateServer, error) {
	s := new(UpdateServer)
	if err := s.init(cfg, timeout); err != nil {
		return nil, err
	}
	loop, err := Listen(addr)
	if err != nil {
		return nil, err
	}
	s.loop = loop
	return s, nil
}

// Close stops accepting, closes every open connection, waits for the
// handlers and cancels any pending debounced rebuild.
func (s *UpdateServer) Close() error { return s.loop.Close() }

// Sites returns the ids of the sites whose models are currently retained,
// sorted.
func (s *UpdateServer) Sites() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sitesLocked()
}

// Global returns the latest global model, or nil before the first update.
func (s *UpdateServer) Global() *model.GlobalModel {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.global
}

// Serve handles connections until Close or until maxConns connections
// have been handled (0 = unlimited), and returns nil then; an accept failure
// ends it with the error. A full-model upload comes on a connection of its
// own, a streaming site's uploads on one kept connection. Connections are
// handled concurrently, the uploads on one connection in turn, and the model
// table and global rebuild are serialized.
func (s *UpdateServer) Serve(maxConns int) error {
	return s.loop.Serve(maxConns, s.handleUpdate)
}

// handleUpdate answers the uploads of one site connection in turn, until
// the site closes it, it sits idle past the server timeout or an exchange
// ends it: a full-model upload (its client dials one connection per
// upload), a refused or broken upload, or a stale one.
//
// The first upload on a connection carries the connection's accept stamp;
// a later one is stamped once its frame has been read, before it waits for
// the table lock. So a site that gives up waiting on an upload its kept
// connection has read, and uploads again on a fresh connection, stamps the
// new upload later: it wins whichever of the two is stored first, and the
// old one is dropped as stale.
func (s *UpdateServer) handleUpdate(conn net.Conn) {
	stamp := s.accepted.Add(1)
	for s.update(conn, stamp) {
		stamp = 0
	}
}

// update is one exchange of handleUpdate under a fresh deadline: read the
// upload, store it, rebuild (or schedule a debounced rebuild) and reply. It
// reports whether the connection stays open for another upload. A stale
// upload — its site's entry is newer — is neither stored nor answered and
// triggers no rebuild. stamp 0 stamps the upload once it has been read.
func (s *UpdateServer) update(conn net.Conn, stamp uint64) bool {
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
		return false
	}
	if stamp == 0 {
		stamp = s.accepted.Add(1)
	}
	s.mu.Lock()
	if up.sections.stream == nil {
		// The entry keeps the latest section the site attached.
		up.sections.stream = s.entries[up.siteID].sections.stream
	}
	_, stored := s.storeLocked(entry{upload: up, stamp: stamp})
	switch {
	case stored && up.delta != nil:
		// The ack does not wait for a (debounced) GlobalStep.
		s.scheduleRebuildLocked()
	case stored:
		_, err = s.rebuildLocked()
	}
	global, version := s.global, s.version
	s.mu.Unlock()
	switch {
	case !stored:
		return false
	case up.delta != nil:
		return s.reply(conn, MsgDeltaAck, encodeDeltaAck(DeltaAck{Seq: up.delta.Seq, GlobalVersion: version})) == nil
	}
	var reply []byte
	if err == nil {
		reply, err = global.MarshalBinary()
	}
	if err != nil {
		s.reply(conn, MsgError, []byte(err.Error()))
		return false
	}
	s.reply(conn, MsgGlobalModel, reply)
	return false
}

// rebuildLocked publishes the global model of every retained site model and
// records the outcome. Caller holds s.mu.
func (s *UpdateServer) rebuildLocked() (*model.GlobalModel, error) {
	global, err := s.publishLocked(nil)
	s.rebuildErr = err
	return global, err
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
	if s.rebuildPending || s.loop.closed() {
		return
	}
	s.rebuildPending = true
	time.AfterFunc(s.debounce, func() {
		s.mu.Lock()
		s.rebuildPending = false
		s.mu.Unlock()
		s.Flush()
	})
}
