package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/wire"
)

// Section 7 of the paper motivates the relabeling step with queries like
// "give me all objects on your site which belong to the global cluster
// 4711". SiteQueryServer is that capability: after a DBDC round, a site
// serves membership queries over its relabelled objects.

// Additional message types for the query protocol.
const (
	// MsgClusterQuery carries a global cluster id (little-endian int32).
	MsgClusterQuery byte = 0x10
	// MsgClusterReply carries the matching points: u32 count, u32 dim,
	// count·dim float64 coordinates.
	MsgClusterReply byte = 0x11
)

// SiteQueryServer answers cluster-membership queries over one site's
// relabelled data.
type SiteQueryServer struct {
	loop    *ConnLoop
	timeout time.Duration

	mu     sync.RWMutex
	pts    []geom.Point
	labels cluster.Labeling
}

// NewSiteQueryServer listens on addr and serves the given relabelled
// objects. pts and labels must have equal length.
func NewSiteQueryServer(addr string, pts []geom.Point, labels cluster.Labeling, timeout time.Duration) (*SiteQueryServer, error) {
	if len(pts) != len(labels) {
		return nil, fmt.Errorf("transport: %d points but %d labels", len(pts), len(labels))
	}
	loop, err := Listen(addr)
	if err != nil {
		return nil, err
	}
	return &SiteQueryServer{loop: loop, timeout: IOTimeout(timeout), pts: pts, labels: labels}, nil
}

// Addr returns the listen address.
func (s *SiteQueryServer) Addr() string { return s.loop.Addr() }

// Close stops accepting, closes every open connection and waits for the
// handlers.
func (s *SiteQueryServer) Close() error { return s.loop.Close() }

// Update replaces the served labeling, e.g. after the next DBDC round.
func (s *SiteQueryServer) Update(pts []geom.Point, labels cluster.Labeling) error {
	if len(pts) != len(labels) {
		return fmt.Errorf("transport: %d points but %d labels", len(pts), len(labels))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pts, s.labels = pts, labels
	return nil
}

// Serve answers n query connections (0 = until Close) and returns nil
// then; an accept failure ends it with the error.
func (s *SiteQueryServer) Serve(n int) error { return s.loop.Serve(n, s.handleQuery) }

func (s *SiteQueryServer) handleQuery(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(s.timeout))
	msgType, payload, _, err := ReadFrame(conn)
	if err != nil {
		if errors.Is(err, ErrChecksum) || errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrFrameVersion) {
			WriteFrame(conn, MsgError, []byte(err.Error()))
		}
		return
	}
	if msgType != MsgClusterQuery || len(payload) != 4 {
		WriteFrame(conn, MsgError, []byte("expected cluster query"))
		return
	}
	q := wire.NewReader(payload)
	id := cluster.ID(q.I32())
	s.mu.RLock()
	var members []geom.Point
	for i, l := range s.labels {
		if l == id {
			members = append(members, s.pts[i])
		}
	}
	s.mu.RUnlock()
	WriteFrame(conn, MsgClusterReply, EncodePoints(members))
}

// EncodePoints serialises a point list into the shared wire layout used by
// MsgClusterReply and the classification requests: u32 count, u32 dim,
// then count·dim little-endian float64 coordinates.
func EncodePoints(pts []geom.Point) []byte {
	dim := 0
	if len(pts) > 0 {
		dim = pts[0].Dim()
	}
	w := wire.NewWriter(make([]byte, 0, 8+len(pts)*dim*8))
	w.U32(uint32(len(pts)))
	w.U32(uint32(dim))
	for _, p := range pts {
		for _, v := range p {
			w.F64(v)
		}
	}
	return w.Bytes()
}

// DecodePoints is the inverse of EncodePoints with hostile-input bounds
// checks: implausible headers are rejected before any allocation sized by
// them. The points share one backing array: two allocations per list, not
// one per point.
func DecodePoints(buf []byte) ([]geom.Point, error) {
	r := wire.NewReader(buf)
	count, dim := int(r.U32()), int(r.U32())
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: truncated point list")
	}
	if dim > 1024 || count > 100_000_000 {
		return nil, fmt.Errorf("transport: implausible point list %dx%d", count, dim)
	}
	if dim == 0 && count > 0 {
		// Zero-dimensional points carry no payload bytes, so the count
		// is unverifiable — reject instead of allocating count headers.
		return nil, fmt.Errorf("transport: %d zero-dimensional points", count)
	}
	if count == 0 && dim > 0 {
		// EncodePoints writes dimension 0 for an empty list: one encoding
		// per list keeps the codec canonical.
		return nil, fmt.Errorf("transport: empty point list declaring dimension %d", dim)
	}
	if need := count * dim * 8; r.Len() != need {
		return nil, fmt.Errorf("transport: point list has %d bytes, want %d", len(buf), 8+need)
	}
	// One backing array for all coordinates; each point is a view clipped
	// to its own coordinates, so appending to one never writes another.
	coords := make([]float64, count*dim)
	for i := range coords {
		coords[i] = r.F64()
	}
	pts := make([]geom.Point, count)
	for i := range pts {
		pts[i] = coords[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return pts, nil
}

// QueryCluster asks the site at addr for all of its objects in the given
// global cluster.
func QueryCluster(addr string, id cluster.ID, timeout time.Duration) ([]geom.Point, error) {
	conn, err := Dial(nil, addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	q := wire.NewWriter(nil)
	q.I32(int32(id))
	reply, err := RoundTrip(conn, MsgClusterQuery, q.Bytes(), MsgClusterReply)
	if err != nil {
		return nil, err
	}
	return DecodePoints(reply)
}
