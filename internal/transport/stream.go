package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"github.com/dbdc-go/dbdc/internal/model"
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
// both using the section format of phases.go, so either side can grow the
// exchange without a new message type and unknown sections are skipped.
const (
	// sectionDeltaAck is the server's answer to a delta upload: status,
	// applied sequence number, global model version.
	sectionDeltaAck byte = 0x05
	// sectionStreamStats is the optional stream-progress section a
	// streaming site attaches to its delta uploads.
	sectionStreamStats byte = 0x06

	deltaAckVersion byte = 1
	// deltaAckBodyLen: version byte, status u8, applied seq u64, global
	// model version u64.
	deltaAckBodyLen = 1 + 1 + 8 + 8

	streamStatsVersion byte = 1
	// streamStatsBodyLen: version byte, window u32, window turns u64,
	// change metric f64.
	streamStatsBodyLen = 1 + 4 + 8 + 8

	// Delta ack status codes.
	deltaAckOK     byte = 0
	deltaAckResync byte = 1
)

// DeltaAck is the server's decoded answer to a delta upload.
type DeltaAck struct {
	// Resync reports that the delta's base sequence did not match the
	// server's folded state: the site must reset its tracker and send a
	// snapshot delta.
	Resync bool
	// Seq is the applied sequence number (on resync: the server's current
	// folded sequence, 0 when it holds nothing for the site).
	Seq uint64
	// GlobalVersion is the server's global model rebuild counter at reply
	// time. With a debounced rebuild the fold may not be reflected yet;
	// versions are monotone, so classify clients can still order models.
	GlobalVersion uint64
}

// encodeDeltaAck builds a MsgDeltaAck payload.
func encodeDeltaAck(a DeltaAck) []byte {
	dst := make([]byte, 0, sectionHeaderSize+deltaAckBodyLen)
	dst = append(dst, sectionDeltaAck)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(deltaAckBodyLen))
	dst = append(dst, deltaAckVersion)
	status := deltaAckOK
	if a.Resync {
		status = deltaAckResync
	}
	dst = append(dst, status)
	dst = binary.LittleEndian.AppendUint64(dst, a.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, a.GlobalVersion)
	return dst
}

// parseDeltaAck decodes a MsgDeltaAck payload. A payload without a readable
// ack section is an error — unlike the informational sections, the ack IS
// the reply.
func parseDeltaAck(data []byte) (DeltaAck, error) {
	var ack DeltaAck
	found := false
	err := walkSections(data, func(id byte, body []byte) {
		if id == sectionDeltaAck && len(body) >= deltaAckBodyLen && body[0] == deltaAckVersion {
			ack.Resync = body[1] == deltaAckResync
			ack.Seq = binary.LittleEndian.Uint64(body[2:10])
			ack.GlobalVersion = binary.LittleEndian.Uint64(body[10:18])
			found = true
		}
	})
	if err != nil {
		return DeltaAck{}, err
	}
	if !found {
		return DeltaAck{}, fmt.Errorf("transport: delta ack without ack section")
	}
	return ack, nil
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

// appendStreamStatsSection appends the encoded stream section to dst.
func appendStreamStatsSection(dst []byte, st StreamStats) []byte {
	dst = append(dst, sectionStreamStats)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(streamStatsBodyLen))
	dst = append(dst, streamStatsVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(st.Window))
	dst = binary.LittleEndian.AppendUint64(dst, st.Turns)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.Change))
	return dst
}

// parseStreamStatsBody decodes a version-1 (or newer, prefix-compatible)
// stream section body; ok is false on a short body or unknown version.
func parseStreamStatsBody(body []byte) (StreamStats, bool) {
	if len(body) < streamStatsBodyLen || body[0] != streamStatsVersion {
		return StreamStats{}, false
	}
	return StreamStats{
		Window: int(binary.LittleEndian.Uint32(body[1:5])),
		Turns:  binary.LittleEndian.Uint64(body[5:13]),
		Change: math.Float64frombits(binary.LittleEndian.Uint64(body[13:21])),
	}, true
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
	// Resync reports the server demanded a snapshot; the upload itself
	// carried no state change.
	Resync bool
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

// StreamClient uploads a streaming site's model updates to an update
// server as deltas. It keeps no state between uploads, so a failed upload
// changes nothing about the next one.
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
// to the caller, who simply uploads again on the next change round. A Resync
// result carries no error: the caller must reset its tracker and upload a
// snapshot delta.
//
// The full model is not sent; the parameter survives because the repository
// benchmark (bench/, frozen) implements stream.Uploader with this signature.
func (c *StreamClient) Upload(_ *model.LocalModel, delta *model.LocalDelta, stats *StreamStats) (*UploadResult, error) {
	if delta == nil {
		return nil, fmt.Errorf("transport: stream upload without a delta")
	}
	payload, err := delta.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if stats != nil {
		payload = appendStreamStatsSection(payload, *stats)
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
		Resync:        ack.Resync,
		Seq:           ack.Seq,
		GlobalVersion: ack.GlobalVersion,
		BytesSent:     as.BytesSent,
		BytesReceived: as.BytesReceived,
	}, nil
}
