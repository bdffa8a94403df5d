package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// collector is step 3 of DBDC, the one job of every collecting server: a
// per-site model table filled by validated uploads, and a global step over
// it that gives the result stable cluster ids, counts versions and
// publishes. The round server (Server) and the update server (UpdateServer)
// are the collector under two triggers — a round's quorum or deadline, and
// each upload (debounced) — and an aggregator (internal/aggtree) is the
// round trigger plus its forward to the parent.
type collector struct {
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	// maxUploadBytes is the per-upload byte cap (see SetMaxUploadBytes); 0
	// means unconstrained.
	maxUploadBytes int64

	cfg     dbdc.Config
	timeout time.Duration
	loop    *ConnLoop
	// accepted stamps every connection at handler entry, before its upload
	// is read, and every later upload on an update server's kept
	// connection once its frame has been read: the table's replacement rule
	// compares stamps.
	accepted atomic.Uint64

	mu      sync.Mutex
	entries map[string]entry
	// stable numbers every global step's clusters by representative
	// overlap with the previous step's (model.ClusterMatcher).
	stable *model.ClusterMatcher
	global *model.GlobalModel
	// version counts published global models.
	version  uint64
	onGlobal func(*model.GlobalModel)
}

// entry is one site's row in the model table.
type entry struct {
	upload
	// stamp is the upload's stamp (collector.accepted).
	stamp uint64
	// conn is a round's connection, held open for the reply; dur is how
	// long reading the upload took.
	conn net.Conn
	dur  time.Duration
}

// init validates cfg and readies an empty table.
func (c *collector) init(cfg dbdc.Config, timeout time.Duration) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	c.cfg, c.timeout = cfg, IOTimeout(timeout)
	c.entries = make(map[string]entry)
	c.stable = model.NewClusterMatcher()
	return nil
}

// Addr returns the address the server listens on.
func (c *collector) Addr() string { return c.loop.Addr() }

// SetOnGlobal registers a sink that receives every global model the server
// publishes: a round's once its global step (and RoundOptions.Finalize)
// succeeded, before the broadcast to the sites; an update server's after
// every rebuild. This is how commands feed the serving-side model registry
// (internal/serve.Registry.PublishFunc) without the transport layer
// depending on it. The callback runs under the table lock, so sinks observe
// the versions in exactly the order they were published (a registry fed from
// here is strictly monotone); keep it fast. Set it once, before the server
// handles connections.
func (c *collector) SetOnGlobal(fn func(*model.GlobalModel)) { c.onGlobal = fn }

// SetMaxUploadBytes caps every frame a site may upload at n bytes, header
// included. The cap binds every upload connection: a frame advertising more
// is refused from its header, before the payload is allocated or awaited,
// and answered with a MsgError naming the cap. Sites that must fit under it
// — budgeted ones — learn it from the MsgHelloAck of the handshake and
// shrink their representative budget until the model frame fits. n ≤ 0
// removes the constraint. Set it once after constructing the server, before
// it handles connections.
func (c *collector) SetMaxUploadBytes(n int64) { c.maxUploadBytes = max(n, 0) }

// BytesIn returns the total frame bytes received from sites.
func (c *collector) BytesIn() int64 { return c.bytesIn.Load() }

// BytesOut returns the total frame bytes sent to sites.
func (c *collector) BytesOut() int64 { return c.bytesOut.Load() }

// reply writes one frame and accounts the bytes.
func (c *collector) reply(conn net.Conn, msgType byte, payload []byte) error {
	n, err := WriteFrame(conn, msgType, payload)
	if err == nil {
		c.bytesOut.Add(int64(n))
	}
	return err
}

// storeLocked files e as its site's entry unless the table holds one whose
// connection was accepted later: a site's retry, or a restarted site, beats
// an older attempt whichever read finishes first. It returns the loser —
// the displaced entry, e itself when it was stale (stored false), or the
// zero entry. Caller holds c.mu.
func (c *collector) storeLocked(e entry) (loser entry, stored bool) {
	prev, ok := c.entries[e.siteID]
	if ok && prev.stamp > e.stamp {
		return e, false
	}
	c.entries[e.siteID] = e
	return prev, true
}

// sitesLocked returns the table's site ids, sorted. Caller holds c.mu.
func (c *collector) sitesLocked() []string {
	ids := make([]string, 0, len(c.entries))
	for id := range c.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// publishLocked runs the global step over the table in site-id order — the
// order of the in-process orchestrator — and renumbers the result's
// clusters stably against the previous step's. finalize, when set, may
// replace the model before it is published as the next version; a
// replacement is published as it is. Caller holds c.mu.
func (c *collector) publishLocked(finalize func(*model.GlobalModel) (*model.GlobalModel, error)) (*model.GlobalModel, error) {
	ids := c.sitesLocked()
	models := make([]*model.LocalModel, len(ids))
	for i, id := range ids {
		models[i] = c.entries[id].model
	}
	global, err := dbdc.GlobalStep(models, c.cfg)
	if err != nil {
		return nil, err
	}
	if !global.Empty() {
		// An empty step (every representative churned out) keeps the
		// matcher's history, so clusters reappearing next version can still
		// claim their ids.
		c.stable.RelabelGlobal(global)
	}
	if finalize != nil {
		if global, err = finalize(global); err != nil {
			return nil, err
		}
	}
	c.global = global
	c.version++
	if c.onGlobal != nil {
		c.onGlobal(global)
	}
	return global, nil
}

// upload is what one site connection delivered.
type upload struct {
	// siteID is best effort when the upload failed: the id is the first
	// payload field and usually survives whatever broke the rest.
	siteID string
	// model is the uploaded model, nil when the upload failed; delta is
	// set, around the same model, for a MsgModelDelta upload.
	model    *model.LocalModel
	delta    *model.LocalDelta
	sections uploadSections
	// negotiated reports that the connection opened with the MsgHello
	// handshake.
	negotiated bool
	// bytes is the wire size of every frame read, handshake included.
	bytes int
}

// readUpload reads and validates one site upload: an optional MsgHello,
// answered with the cap, then the upload frame under the cap — the
// self-delimiting model (or, where deltas are accepted, delta) prefix, one
// walk over the section area, Validate.
//
// An upload that arrived intact but cannot be accepted — over the cap, an
// unknown or retired frame type, undecodable or invalid content — is answered
// with a MsgError here, so the site fails with the reason instead of retrying
// into the same refusal. Faults in transit (I/O errors, checksum and frame
// version mismatches) get no answer from readUpload; the caller decides.
func (c *collector) readUpload(conn net.Conn, deltas bool) (upload, error) {
	var up upload
	refuse := func(err error) (upload, error) {
		c.reply(conn, MsgError, []byte(err.Error()))
		return up, err
	}
	maxFrame := int64(frameHeaderSize + MaxFrameSize)
	if c.maxUploadBytes > 0 {
		maxFrame = min(maxFrame, c.maxUploadBytes)
	}
	msgType, payload, n, err := readFrame(conn, nil, maxFrame)
	up.bytes = n
	if err == nil && msgType == MsgHello {
		c.bytesIn.Add(int64(n))
		if _, err := parseHello(payload); err != nil {
			return refuse(err)
		}
		up.negotiated = true
		if err := c.reply(conn, MsgHelloAck, encodeHelloAck(c.maxUploadBytes)); err != nil {
			return up, fmt.Errorf("transport: writing hello ack: %w", err)
		}
		msgType, payload, n, err = readFrame(conn, nil, maxFrame)
		up.bytes += n
	}
	up.siteID = model.PeekLocalSiteID(payload)
	if errors.Is(err, ErrFrameTooLarge) {
		// The refused payload may still be in flight: discard it after
		// answering, so that closing does not reset the connection under
		// the answer the site is about to read.
		defer io.CopyN(io.Discard, conn, MaxFrameSize)
		return refuse(err)
	}
	if err != nil {
		return up, err
	}
	c.bytesIn.Add(int64(n))
	var body interface {
		UnmarshalBinaryPrefix([]byte) (int, error)
		Validate() error
	}
	switch {
	case msgType == MsgLocalModelTimed:
		up.model = new(model.LocalModel)
		body = up.model
	case msgType == MsgModelDelta && deltas:
		up.delta = new(model.LocalDelta)
		body = up.delta
	default:
		return refuse(fmt.Errorf("transport: expected a model upload, got message type 0x%02x", msgType))
	}
	consumed, err := body.UnmarshalBinaryPrefix(payload)
	if err == nil {
		up.sections, err = parseSections(payload[consumed:])
	}
	if err == nil {
		err = body.Validate()
	}
	if err != nil {
		up.model, up.delta = nil, nil
		return refuse(err)
	}
	if up.delta != nil {
		up.model = up.delta.Model
	}
	up.siteID = up.model.SiteID
	return up, nil
}
