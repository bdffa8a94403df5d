package serve

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"
	"unsafe"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/transport"
	"github.com/dbdc-go/dbdc/internal/wire"
)

// DefaultMaxBatch bounds the points accepted in one MsgClassifyBatch
// request; larger batches are rejected with MsgError before any
// classification work happens.
const DefaultMaxBatch = 8192

// ServerConfig configures the classification front end.
type ServerConfig struct {
	// Registry supplies the current model snapshot per request. Required.
	Registry *Registry
	// Metrics receives the observability signals; nil disables them.
	Metrics *Metrics
	// Timeout is the per-request deadline: reading one request frame and
	// writing its reply must each finish within it. It doubles as the
	// idle timeout between requests on a persistent connection. 0 =
	// transport.DefaultTimeout.
	Timeout time.Duration
	// MaxBatch caps the points per batch request; 0 = DefaultMaxBatch.
	MaxBatch int
}

// Server is the classification front end: it accepts concurrent
// persistent connections speaking the CRC-checked frame protocol and
// answers MsgClassify / MsgClassifyBatch requests against the registry's
// current snapshot. Every request re-reads the snapshot, so a hot swap
// takes effect between any two requests without disturbing one in flight.
type Server struct {
	cfg  ServerConfig
	loop *transport.ConnLoop
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and returns the front
// end. Call Serve to start answering.
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("serve: server needs a registry")
	}
	cfg.Timeout = transport.IOTimeout(cfg.Timeout)
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	loop, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, loop: loop}, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.loop.Addr() }

// Close stops accepting, closes every open connection and waits for the
// handlers to drain.
func (s *Server) Close() error { return s.loop.Close() }

// Serve accepts and handles connections until Close and returns nil then;
// an accept failure ends it with the error.
func (s *Server) Serve() error {
	return s.loop.Serve(0, func(conn net.Conn) { s.handleConn(conn, new(connBuffers)) })
}

// maxKeptBytes bounds each buffer a connection keeps from one request to
// the next. A request that needs a larger one is served from a buffer of
// its own, dropped after the reply, so a single oversized frame cannot pin
// its memory for the life of the connection.
const maxKeptBytes = 1 << 20

// kept returns s emptied for the next request, or nil when its backing
// array is over maxKeptBytes.
func kept[T any](s []T) []T {
	var zero T
	if uintptr(cap(s))*unsafe.Sizeof(zero) > maxKeptBytes {
		return nil
	}
	return s[:0]
}

// connBuffers are what one connection reuses across its requests, so that
// a request allocates nothing once the buffers have grown to its size.
type connBuffers struct {
	in     []byte       // request payload
	pts    []geom.Point // decoded point headers, views into coords
	coords []float64
	labels []cluster.ID
	out    []byte // reply frame
}

// trim keeps every buffer within maxKeptBytes.
func (b *connBuffers) trim() {
	b.in, b.pts, b.coords, b.labels, b.out = kept(b.in), kept(b.pts), kept(b.coords), kept(b.labels), kept(b.out)
}

// handleConn runs the request/response loop of one persistent connection
// over the connection's buffers b.
func (s *Server) handleConn(conn net.Conn, b *connBuffers) {
	m := s.cfg.Metrics
	if m != nil {
		m.ActiveConns.Add(1)
		defer m.ActiveConns.Add(-1)
	}
	for {
		// Per-request deadline: the client has Timeout to deliver the next
		// request (idle included), the server Timeout to answer it.
		conn.SetReadDeadline(time.Now().Add(s.cfg.Timeout))
		msgType, payload, _, err := transport.ReadFrameInto(conn, b.in)
		if err != nil {
			// Corrupt frames get a best-effort error reply; a client that
			// hung up between requests, timeouts and torn connections do
			// not.
			if errors.Is(err, transport.ErrChecksum) || errors.Is(err, transport.ErrFrameTooLarge) || errors.Is(err, transport.ErrFrameVersion) {
				s.replyError(conn, err.Error())
			}
			return
		}
		b.in = payload
		ok := s.handleRequest(conn, msgType, payload, b)
		b.trim()
		if !ok {
			return
		}
	}
}

// handleRequest answers one decoded request frame, decoding and replying
// through b, and reports whether the connection should keep going.
func (s *Server) handleRequest(conn net.Conn, msgType byte, payload []byte, b *connBuffers) bool {
	start := time.Now()
	m := s.cfg.Metrics
	if m != nil {
		m.Requests.Add(1)
	}
	switch msgType {
	case transport.MsgClassify, transport.MsgClassifyBatch:
	default:
		s.replyError(conn, fmt.Sprintf("serve: unexpected message type 0x%02x", msgType))
		return false
	}
	pts, coords, err := transport.DecodePointsInto(payload, b.pts, b.coords)
	if err != nil {
		s.replyError(conn, err.Error())
		return false
	}
	b.pts, b.coords = pts, coords
	if msgType == transport.MsgClassify && len(pts) != 1 {
		s.replyError(conn, fmt.Sprintf("serve: MsgClassify carries %d points, want exactly 1", len(pts)))
		return false
	}
	if len(pts) > s.cfg.MaxBatch {
		s.replyError(conn, fmt.Sprintf("serve: batch of %d points exceeds the cap of %d", len(pts), s.cfg.MaxBatch))
		return false
	}
	// One atomic load pins this request to a complete snapshot; a hot
	// swap concurrent with the classification below is invisible here.
	snap := s.cfg.Registry.Current()
	if snap == nil {
		s.replyError(conn, "serve: no model published yet")
		return true // not a protocol violation; the client may retry later
	}
	labels := slices.Grow(b.labels[:0], len(pts))[:len(pts)]
	b.labels = labels
	if err := snap.Classifier.ClassifyBatch(pts, labels); err != nil {
		s.replyError(conn, err.Error())
		return false
	}
	if m != nil {
		m.Points.Add(uint64(len(labels)))
		noise := 0
		for _, l := range labels {
			if l == cluster.Noise {
				noise++
			}
		}
		m.Noise.Add(uint64(noise))
	}
	b.out = appendReply(transport.StartFrame(b.out), snap.Version, labels)
	conn.SetWriteDeadline(time.Now().Add(s.cfg.Timeout))
	if _, err := transport.SendFrame(conn, transport.MsgClassifyReply, b.out); err != nil {
		if m != nil {
			m.Errors.Add(1)
		}
		return false
	}
	if m != nil {
		m.Latency.Observe(time.Since(start))
	}
	return true
}

// replyError sends a MsgError frame (best effort) and counts it.
func (s *Server) replyError(conn net.Conn, msg string) {
	if m := s.cfg.Metrics; m != nil {
		m.Errors.Add(1)
	}
	conn.SetWriteDeadline(time.Now().Add(s.cfg.Timeout))
	transport.WriteFrame(conn, transport.MsgError, []byte(msg))
}

// EncodeReply serialises a MsgClassifyReply payload: u64 model version,
// u32 count, count little-endian int32 labels.
func EncodeReply(version uint64, labels []cluster.ID) []byte {
	return appendReply(nil, version, labels)
}

// appendReply appends the EncodeReply encoding to dst, growing it at most
// once, and returns the extended slice.
func appendReply(dst []byte, version uint64, labels []cluster.ID) []byte {
	w := wire.NewWriter(slices.Grow(dst, 12+4*len(labels)))
	w.U64(version)
	w.U32(uint32(len(labels)))
	for _, l := range labels {
		w.I32(int32(l))
	}
	return w.Bytes()
}

// DecodeReply is the inverse of EncodeReply with bounds checks.
func DecodeReply(buf []byte) (version uint64, labels []cluster.ID, err error) {
	r := wire.NewReader(buf)
	version, count := r.U64(), int(r.U32())
	if r.Err() != nil {
		return 0, nil, fmt.Errorf("serve: truncated classify reply (%d bytes)", len(buf))
	}
	if r.Len() != 4*count {
		return 0, nil, fmt.Errorf("serve: classify reply advertises %d labels but has %d bytes", count, len(buf))
	}
	labels = make([]cluster.ID, count)
	for i := range labels {
		labels[i] = cluster.ID(r.I32())
	}
	return version, labels, nil
}
