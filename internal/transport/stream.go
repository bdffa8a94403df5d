package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/wire"
)

// This file implements the wire side of the always-on streaming round: the
// MsgModelDelta / MsgDeltaAck exchange and the StreamClient that a
// streaming site (internal/stream) uploads through.
//
// Wire layout of a MsgModelDelta payload:
//
//	[ model.LocalDelta bytes ][ section ]*
//
// and of a MsgDeltaAck payload:
//
//	[ section ]*
//
// both in the section framing of internal/wire, so either side can grow the
// exchange without a new message type and unknown sections are skipped.

// DeltaAck is the server's decoded answer to a delta upload.
type DeltaAck struct {
	// Seq is the applied sequence number.
	Seq uint64
	// GlobalVersion is the server's global model rebuild counter at reply
	// time. With a debounced rebuild the upload may not be reflected yet;
	// versions are monotone, so classify clients can still order models.
	GlobalVersion uint64
}

// deltaAckSection is the server's answer to a delta upload: a status byte
// (always 0, OK; readers ignore it), the applied sequence number and the
// global model version.
var deltaAckSection = wire.Section[DeltaAck]{
	ID:      0x05,
	Version: 1,
	Write: func(w *wire.Writer, a DeltaAck) {
		w.U8(0)
		w.U64(a.Seq)
		w.U64(a.GlobalVersion)
	},
	Read: func(r *wire.Reader) DeltaAck {
		r.U8()
		return DeltaAck{Seq: r.U64(), GlobalVersion: r.U64()}
	},
}

// encodeDeltaAck builds a MsgDeltaAck payload.
func encodeDeltaAck(a DeltaAck) []byte { return deltaAckSection.Append(nil, a) }

// parseDeltaAck decodes a MsgDeltaAck payload. A payload without a readable
// ack section is an error — unlike the informational sections, the ack IS
// the reply.
func parseDeltaAck(data []byte) (DeltaAck, error) {
	var ack *DeltaAck
	if err := wire.ReadSections(data, deltaAckSection.Into(&ack)); err != nil {
		return DeltaAck{}, err
	}
	if ack == nil {
		return DeltaAck{}, fmt.Errorf("transport: delta ack without ack section")
	}
	return *ack, nil
}

// StreamStats is the stream-progress section a streaming site attaches to
// its delta uploads: informational, surfaced by the server for operators.
type StreamStats struct {
	// Window is the site's sliding-window size in objects.
	Window int
	// Turns is how often the window content has fully turned over.
	Turns uint64
	// Change is the clustering-change metric (1 − P^II against the last
	// transmitted snapshot) that triggered this upload.
	Change float64
}

// streamStatsSection is the optional stream-progress section a streaming
// site attaches to its delta uploads.
var streamStatsSection = wire.Section[StreamStats]{
	ID:      0x06,
	Version: 1,
	Write: func(w *wire.Writer, st StreamStats) {
		w.U32(uint32(st.Window))
		w.U64(st.Turns)
		w.F64(st.Change)
	},
	Read: func(r *wire.Reader) StreamStats {
		return StreamStats{Window: int(r.U32()), Turns: r.U64(), Change: r.F64()}
	},
}

// UploadMode names the wire encoding a StreamClient upload went out with.
// There is one, the delta; the type survives because the repository
// benchmark (bench/, frozen) compiles against UploadResult.Mode == ModeDelta.
type UploadMode int

// ModeDelta is the streaming MsgModelDelta upload.
const ModeDelta UploadMode = 0

// UploadResult describes one StreamClient upload.
type UploadResult struct {
	// Mode is always ModeDelta (see UploadMode).
	Mode UploadMode
	// Seq is the acknowledged sequence number.
	Seq uint64
	// GlobalVersion is the server's global rebuild counter from the ack.
	// The delta exchange deliberately keeps the downlink to an ack,
	// trusting the classify tier for reads.
	GlobalVersion uint64
	// BytesSent and BytesReceived are this call's wire cost.
	BytesSent     int
	BytesReceived int
}

// StreamClient uploads a streaming site's models to an update server over
// one kept connection: the first upload dials it, the later ones reuse it,
// and any fault drops it, so that the next upload dials afresh. Uploads are
// serialized on the connection. Close releases it.
type StreamClient struct {
	// Addr is the update server address ("host:port").
	Addr string
	// Timeout bounds dialing and each upload's I/O; 0 means
	// DefaultTimeout.
	Timeout time.Duration
	// Dial opens connections; nil means net.DialTimeout.
	Dial DialFunc

	// mu serializes the uploads on conn, the kept connection: nil before
	// the first upload, after a fault and after Close.
	mu   sync.Mutex
	conn net.Conn
}

// Upload ships one model update as a MsgModelDelta on the kept connection
// and returns the server's ack. When a reused connection turns out closed
// by the server before any reply byte arrives — it read EOF, or the
// connection was reset, as after the server dropped it while it sat idle —
// the upload is sent once more on a fresh connection, as net/http resends a
// request on a kept connection the server has closed. Every other fault — a
// dial error, a timeout, a fresh connection dropped, a MsgError reply — is
// returned to the caller, who simply uploads again on the next change round.
//
// The first argument is unused: the delta carries the model. The parameter
// survives because the repository benchmark (bench/, frozen) implements
// stream.Uploader with this signature.
func (c *StreamClient) Upload(_ *model.LocalModel, delta *model.LocalDelta, stats *StreamStats) (*UploadResult, error) {
	if delta == nil {
		return nil, fmt.Errorf("transport: stream upload without a delta")
	}
	payload, err := delta.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if stats != nil {
		payload = streamStatsSection.Append(payload, *stats)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	res := &UploadResult{Mode: ModeDelta}
	reused := c.conn != nil
	ack, replied, err := c.roundTrip(payload, res)
	if err != nil && reused && !replied && peerClosed(err) {
		ack, _, err = c.roundTrip(payload, res)
	}
	if err != nil {
		return nil, err
	}
	res.Seq, res.GlobalVersion = ack.Seq, ack.GlobalVersion
	return res, nil
}

// roundTrip sends one MsgModelDelta frame on the kept connection, dialling
// one when there is none, and decodes the MsgDeltaAck, adding the frames'
// bytes to res. Under a fault it drops the connection; replied reports
// whether a reply byte had arrived. Caller holds c.mu.
func (c *StreamClient) roundTrip(payload []byte, res *UploadResult) (ack DeltaAck, replied bool, err error) {
	if c.conn == nil {
		if c.conn, err = Dial(c.Dial, c.Addr, c.Timeout); err != nil {
			return ack, false, err
		}
	}
	c.conn.SetDeadline(time.Now().Add(IOTimeout(c.Timeout)))
	var as AttemptStats
	reply, replied, err := exchange(c.conn, MsgModelDelta, payload, MsgDeltaAck, &as)
	res.BytesSent += as.BytesSent
	res.BytesReceived += as.BytesReceived
	if err == nil {
		ack, err = parseDeltaAck(reply)
	}
	if err != nil {
		c.dropLocked()
	}
	return ack, replied, err
}

// peerClosed reports whether err says the peer closed the connection — EOF,
// a reset or a broken pipe — and not that it timed out.
func peerClosed(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// Close closes the kept connection. The client stays usable: the next
// Upload dials a new one. Without a connection — a second Close — it does
// nothing and returns nil. It waits for an upload in flight.
func (c *StreamClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropLocked()
}

// dropLocked closes and forgets the kept connection. Caller holds c.mu.
func (c *StreamClient) dropLocked() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
