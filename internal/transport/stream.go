package transport

import (
	"fmt"
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

// StreamClient uploads a streaming site's models to an update server. It
// keeps no state between uploads, so a failed upload changes nothing about
// the next one.
type StreamClient struct {
	// Addr is the update server address ("host:port").
	Addr string
	// Timeout bounds dialing and each connection's I/O; 0 means
	// DefaultTimeout.
	Timeout time.Duration
	// Dial opens connections; nil means net.DialTimeout.
	Dial DialFunc
}

// Upload ships one model update as a MsgModelDelta on a fresh connection
// (the update server handles one exchange per connection). Every fault — a
// dial error, a timeout, a dropped connection, a MsgError reply — is returned
// to the caller, who simply uploads again on the next change round.
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
	conn, err := Dial(c.Dial, c.Addr, c.Timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	var as AttemptStats
	reply, err := exchange(conn, MsgModelDelta, payload, MsgDeltaAck, &as)
	if err != nil {
		return nil, err
	}
	ack, err := parseDeltaAck(reply)
	if err != nil {
		return nil, err
	}
	return &UploadResult{
		Mode:          ModeDelta,
		Seq:           ack.Seq,
		GlobalVersion: ack.GlobalVersion,
		BytesSent:     as.BytesSent,
		BytesReceived: as.BytesReceived,
	}, nil
}
