package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/transport"
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
func (s *Server) Serve() error { return s.loop.Serve(0, s.handleConn) }

// handleConn runs the request/response loop of one persistent connection.
func (s *Server) handleConn(conn net.Conn) {
	m := s.cfg.Metrics
	if m != nil {
		m.ActiveConns.Add(1)
		defer m.ActiveConns.Add(-1)
	}
	for {
		// Per-request deadline: the client has Timeout to deliver the next
		// request (idle included), the server Timeout to answer it.
		conn.SetReadDeadline(time.Now().Add(s.cfg.Timeout))
		msgType, payload, _, err := transport.ReadFrame(conn)
		if err != nil {
			// Corrupt frames get a best-effort error reply; a client that
			// hung up between requests, timeouts and torn connections do
			// not.
			if errors.Is(err, transport.ErrChecksum) || errors.Is(err, transport.ErrFrameTooLarge) || errors.Is(err, transport.ErrFrameVersion) {
				s.replyError(conn, err.Error())
			}
			return
		}
		if !s.handleRequest(conn, msgType, payload) {
			return
		}
	}
}

// handleRequest answers one decoded request frame and reports whether the
// connection should keep going.
func (s *Server) handleRequest(conn net.Conn, msgType byte, payload []byte) bool {
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
	pts, err := transport.DecodePoints(payload)
	if err != nil {
		s.replyError(conn, err.Error())
		return false
	}
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
	labels := make([]cluster.ID, len(pts))
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
	conn.SetWriteDeadline(time.Now().Add(s.cfg.Timeout))
	if _, err := transport.WriteFrame(conn, transport.MsgClassifyReply, EncodeReply(snap.Version, labels)); err != nil {
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
	buf := make([]byte, 12+4*len(labels))
	binary.LittleEndian.PutUint64(buf, version)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(labels)))
	off := 12
	for _, l := range labels {
		binary.LittleEndian.PutUint32(buf[off:], uint32(int32(l)))
		off += 4
	}
	return buf
}

// DecodeReply is the inverse of EncodeReply with bounds checks.
func DecodeReply(buf []byte) (version uint64, labels []cluster.ID, err error) {
	if len(buf) < 12 {
		return 0, nil, fmt.Errorf("serve: truncated classify reply (%d bytes)", len(buf))
	}
	version = binary.LittleEndian.Uint64(buf)
	count := int(binary.LittleEndian.Uint32(buf[8:]))
	if len(buf) != 12+4*count {
		return 0, nil, fmt.Errorf("serve: classify reply advertises %d labels but has %d bytes", count, len(buf))
	}
	labels = make([]cluster.ID, count)
	off := 12
	for i := range labels {
		labels[i] = cluster.ID(int32(binary.LittleEndian.Uint32(buf[off:])))
		off += 4
	}
	return version, labels, nil
}
