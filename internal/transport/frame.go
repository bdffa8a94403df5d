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
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/dbdc-go/dbdc/internal/wire"
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
	// server's upload byte cap (budgetCapSection); an empty section area
	// means no constraints.
	MsgHelloAck byte = 0x31

	// MsgModelDelta is the one streaming upload: a model.LocalDelta — the
	// site's local model under a sequence number — immediately followed by
	// optional trailer sections (stream statistics, per-phase metrics; see
	// stream.go). The delta encoding is self-delimiting like the full
	// model's. The update server stores the model as the site's newest and
	// answers with MsgDeltaAck.
	MsgModelDelta byte = 0x40
	// MsgDeltaAck answers MsgModelDelta. Its sectioned payload carries the
	// applied sequence number and the server's global model version.
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

// StartFrame returns dst emptied and extended by the header space of one
// frame: append the payload to it and hand the result to SendFrame. A
// caller that keeps the buffer across frames writes without allocating.
func StartFrame(dst []byte) []byte { return append(dst[:0], make([]byte, frameHeaderSize)...) }

// SendFrame writes frame — a StartFrame buffer with the payload appended —
// as one protocol frame in a single Write, and returns the number of bytes
// put on the wire. It fills in the header over the space StartFrame
// reserved. One Write per frame keeps a frame in one segment on a
// TCP_NODELAY connection instead of sending its header on its own.
func SendFrame(w io.Writer, msgType byte, frame []byte) (int, error) {
	payload := frame[frameHeaderSize:]
	if len(payload) > MaxFrameSize {
		return 0, fmt.Errorf("%w: payload is %d bytes", ErrFrameTooLarge, len(payload))
	}
	header := wire.NewWriter(frame[:0])
	header.U8(FrameVersion)
	header.U8(msgType)
	header.U32(uint32(len(payload)))
	header.U32(crc32.ChecksumIEEE(payload))
	if n, err := w.Write(frame); err != nil {
		return n, fmt.Errorf("transport: writing frame: %w", err)
	}
	return len(frame), nil
}

// WriteFrame writes one protocol frame in a single Write and returns the
// number of bytes put on the wire. It copies the payload behind the header;
// SendFrame is the form that writes from a kept buffer.
func WriteFrame(w io.Writer, msgType byte, payload []byte) (int, error) {
	return SendFrame(w, msgType, append(StartFrame(make([]byte, 0, frameHeaderSize+len(payload))), payload...))
}

// ReadFrame reads one protocol frame, verifies its checksum and returns its
// type, payload and size on the wire. Corrupt input yields typed errors:
// ErrFrameVersion, ErrFrameTooLarge or ErrChecksum (all wrapped, match with
// errors.Is), never a garbage payload.
func ReadFrame(r io.Reader) (msgType byte, payload []byte, n int, err error) {
	return readFrame(r, nil, frameHeaderSize+MaxFrameSize)
}

// ReadFrameInto is ReadFrame reading into buf's backing array: the header,
// then the payload over it, when buf's capacity holds them, a new array
// otherwise. The payload aliases that array, so it is valid until the
// caller reuses buf; a caller that keeps the payload's array across frames
// reads without allocating.
func ReadFrameInto(r io.Reader, buf []byte) (msgType byte, payload []byte, n int, err error) {
	return readFrame(r, buf, frameHeaderSize+MaxFrameSize)
}

// readFrame is ReadFrameInto with the caller's bound on the whole frame,
// header included: a frame advertising more is refused with
// ErrFrameTooLarge from its header alone, before any payload is allocated
// or awaited.
func readFrame(r io.Reader, buf []byte, maxFrame int64) (msgType byte, payload []byte, n int, err error) {
	if cap(buf) < frameHeaderSize {
		buf = make([]byte, frameHeaderSize)
	}
	if _, err := io.ReadFull(r, buf[:frameHeaderSize]); err != nil {
		return 0, nil, 0, fmt.Errorf("transport: reading frame header: %w", err)
	}
	header := wire.NewReader(buf[:frameHeaderSize])
	if v := header.U8(); v != FrameVersion {
		return 0, nil, 0, fmt.Errorf("%w: got %d, want %d", ErrFrameVersion, v, FrameVersion)
	}
	msgType = header.U8()
	size := header.U32()
	if frame := frameHeaderSize + int64(size); frame > maxFrame {
		return 0, nil, 0, fmt.Errorf("%w: header advertises a %d-byte frame, limit is %d",
			ErrFrameTooLarge, frame, maxFrame)
	}
	wantCRC := header.U32()
	if uint64(cap(buf)) < uint64(size) {
		buf = make([]byte, size)
	}
	payload = buf[:size]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("transport: reading frame payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		// The corrupt payload is returned alongside ErrChecksum so
		// callers can attempt best-effort diagnostics (e.g. naming the
		// site behind a flipped-bit upload); it must never be decoded
		// as a model.
		return msgType, payload, frameHeaderSize + int(size),
			fmt.Errorf("%w: payload CRC 0x%08x, header says 0x%08x", ErrChecksum, got, wantCRC)
	}
	return msgType, payload, frameHeaderSize + int(size), nil
}
