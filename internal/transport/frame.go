// Package transport turns DBDC into an actual client/server system: sites
// connect to the central server over TCP, upload their local models and
// receive the global model back. The paper's setting — independent sites
// that communicate only with the server, never with each other — maps to
// one synchronous round trip per site. All payloads use the compact binary
// encoding of the model package, and both directions count bytes so the
// transmission-cost claims can be measured rather than asserted.
//
// The transport is built to survive faults, not just the happy path: frames
// carry a CRC32 so corruption is detected instead of decoded, clients retry
// transient failures with exponential backoff (RetryPolicy), and the server
// runs rounds under an accept deadline with a configurable quorum so a
// missing site degrades the round instead of hanging it. The fault matrix
// is exercised by the tests in this package via internal/faultnet.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Message types of the wire protocol. 0x01 was the original bare-model
// upload; the id is retired and never reused — a server answers it like any
// other unknown type.
const (
	// MsgGlobalModel carries a model.GlobalModel from server to site.
	MsgGlobalModel byte = 0x02
	// MsgError carries a UTF-8 error string from server to site when the
	// server refused the upload or the round failed (e.g. the quorum was
	// missed). The site treats it as permanent: a retry would be refused
	// the same way.
	MsgError byte = 0x03
	// MsgLocalModelTimed is the one full-model upload: a model.LocalModel
	// immediately followed by zero or more skip-unknown trailer sections
	// (per-phase site metrics, budget accounting, aggregation provenance;
	// see phases.go). The model encoding is self-delimiting, so the section
	// area starts wherever the model ends.
	MsgLocalModelTimed byte = 0x08

	// MsgHello opens the pre-upload handshake on an upload connection: a
	// site that must fit under the server's upload cap (a budgeted site)
	// asks for it before committing bytes to the wire. The payload is a
	// section area (see budget.go) so either side can grow the handshake
	// without a new message type. Sites that need nothing from the server
	// skip the handshake and upload directly.
	// (0x10/0x11 belong to the site query server — see query.go.)
	MsgHello byte = 0x30
	// MsgHelloAck answers MsgHello. Its sectioned payload advertises the
	// server's upload byte cap (sectionBudgetCap); an empty section area
	// means no constraints.
	MsgHelloAck byte = 0x31

	// MsgModelDelta is the one streaming upload: a model.LocalDelta — the
	// incremental form of a local model — immediately followed by optional
	// trailer sections (stream statistics, per-phase metrics; see
	// stream.go). The delta encoding is self-delimiting like the full
	// model's. The update server folds the delta into its per-site model
	// table and answers with MsgDeltaAck.
	MsgModelDelta byte = 0x40
	// MsgDeltaAck answers MsgModelDelta. Its sectioned payload carries the
	// applied sequence number and the server's global model version, or a
	// resync demand when the delta's base did not match the folded state
	// (the site then resets its tracker and sends a snapshot delta).
	MsgDeltaAck byte = 0x41

	// Classification protocol (the read side served by internal/serve):
	// requests classify arbitrary points against the currently published
	// global model. The payload of both request types is an EncodePoints
	// point list; MsgClassify must carry exactly one point,
	// MsgClassifyBatch any number up to the server's batch cap.
	// Connections are persistent: a client may issue many requests on one
	// connection, each answered by exactly one MsgClassifyReply (or
	// MsgError, after which the server closes).
	MsgClassify byte = 0x20
	// MsgClassifyBatch carries an EncodePoints list of query points.
	MsgClassifyBatch byte = 0x21
	// MsgClassifyReply answers either request: u64 model version, u32
	// label count, then count little-endian int32 global cluster ids
	// (−1 = noise), positionally aligned with the request points.
	MsgClassifyReply byte = 0x22
)

// FrameVersion is the wire protocol version. Version 2 added the version
// byte itself and a CRC32 of the payload to the frame header; version 1
// frames (4-byte length + type, no checksum) are rejected.
const FrameVersion byte = 2

// MaxFrameSize bounds a frame payload (64 MiB) so a corrupt length prefix
// cannot exhaust memory.
const MaxFrameSize = 64 << 20

// Frame header layout (little-endian):
//
//	[0]    version (FrameVersion)
//	[1]    message type
//	[2:6]  payload length
//	[6:10] CRC32 (IEEE) of the payload
const frameHeaderSize = 10

// Typed frame errors. Callers should match with errors.Is: the returned
// errors wrap these sentinels with context.
var (
	// ErrFrameTooLarge is returned when a frame advertises a payload
	// beyond MaxFrameSize, or beyond the upload cap of the server reading
	// it.
	ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")
	// ErrChecksum is returned when a payload does not match the CRC32 in
	// the frame header — the bytes were corrupted in flight.
	ErrChecksum = errors.New("transport: frame checksum mismatch")
	// ErrFrameVersion is returned when the peer speaks a different frame
	// version.
	ErrFrameVersion = errors.New("transport: unsupported frame version")
)

// WriteFrame writes one protocol frame and returns the number of bytes put
// on the wire.
func WriteFrame(w io.Writer, msgType byte, payload []byte) (int, error) {
	if len(payload) > MaxFrameSize {
		return 0, fmt.Errorf("%w: payload is %d bytes", ErrFrameTooLarge, len(payload))
	}
	header := make([]byte, frameHeaderSize)
	header[0] = FrameVersion
	header[1] = msgType
	binary.LittleEndian.PutUint32(header[2:6], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[6:10], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(header); err != nil {
		return 0, fmt.Errorf("transport: writing frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return frameHeaderSize, fmt.Errorf("transport: writing frame payload: %w", err)
	}
	return frameHeaderSize + len(payload), nil
}

// ReadFrame reads one protocol frame, verifies its checksum and returns its
// type, payload and size on the wire. Corrupt input yields typed errors:
// ErrFrameVersion, ErrFrameTooLarge or ErrChecksum (all wrapped, match with
// errors.Is), never a garbage payload.
func ReadFrame(r io.Reader) (msgType byte, payload []byte, n int, err error) {
	return readFrame(r, frameHeaderSize+MaxFrameSize)
}

// readFrame is ReadFrame with the caller's bound on the whole frame, header
// included: a frame advertising more is refused with ErrFrameTooLarge from
// its header alone, before any payload is allocated or awaited.
func readFrame(r io.Reader, maxFrame int64) (msgType byte, payload []byte, n int, err error) {
	header := make([]byte, frameHeaderSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return 0, nil, 0, fmt.Errorf("transport: reading frame header: %w", err)
	}
	if header[0] != FrameVersion {
		return 0, nil, 0, fmt.Errorf("%w: got %d, want %d", ErrFrameVersion, header[0], FrameVersion)
	}
	size := binary.LittleEndian.Uint32(header[2:6])
	if frame := frameHeaderSize + int64(size); frame > maxFrame {
		return 0, nil, 0, fmt.Errorf("%w: header advertises a %d-byte frame, limit is %d",
			ErrFrameTooLarge, frame, maxFrame)
	}
	wantCRC := binary.LittleEndian.Uint32(header[6:10])
	payload = make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("transport: reading frame payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		// The corrupt payload is returned alongside ErrChecksum so
		// callers can attempt best-effort diagnostics (e.g. naming the
		// site behind a flipped-bit upload); it must never be decoded
		// as a model.
		return header[1], payload, frameHeaderSize + int(size),
			fmt.Errorf("%w: payload CRC 0x%08x, header says 0x%08x", ErrChecksum, got, wantCRC)
	}
	return header[1], payload, frameHeaderSize + int(size), nil
}
