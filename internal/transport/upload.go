package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"

	"github.com/dbdc-go/dbdc/internal/model"
)

// uploadEndpoint is what the round server and the update server share: the
// upload byte cap, the wire counters and the one function that reads a site
// upload off a connection.
type uploadEndpoint struct {
	bytesIn  atomic.Int64
	bytesOut atomic.Int64

	// maxUploadBytes is the per-upload byte cap (see SetMaxUploadBytes); 0
	// means unconstrained.
	maxUploadBytes int64
}

// SetMaxUploadBytes caps every frame a site may upload at n bytes, header
// included. The cap binds every upload connection: a frame advertising more
// is refused from its header, before the payload is allocated or awaited,
// and answered with a MsgError naming the cap. Sites that must fit under it
// — budgeted ones — learn it from the MsgHelloAck of the handshake and
// shrink their representative budget until the model frame fits. n ≤ 0
// removes the constraint. Set it once after constructing the server, before
// it handles connections.
func (e *uploadEndpoint) SetMaxUploadBytes(n int64) { e.maxUploadBytes = max(n, 0) }

// BytesIn returns the total frame bytes received from sites.
func (e *uploadEndpoint) BytesIn() int64 { return e.bytesIn.Load() }

// BytesOut returns the total frame bytes sent to sites.
func (e *uploadEndpoint) BytesOut() int64 { return e.bytesOut.Load() }

// reply writes one frame and accounts the bytes.
func (e *uploadEndpoint) reply(conn net.Conn, msgType byte, payload []byte) error {
	n, err := WriteFrame(conn, msgType, payload)
	if err == nil {
		e.bytesOut.Add(int64(n))
	}
	return err
}

// upload is what one site connection delivered.
type upload struct {
	// siteID is best effort when the upload failed: the id is the first
	// payload field and usually survives whatever broke the rest.
	siteID string
	// model is set for a MsgLocalModelTimed upload, delta for a
	// MsgModelDelta one; both nil when the upload failed.
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
func (e *uploadEndpoint) readUpload(conn net.Conn, deltas bool) (upload, error) {
	var up upload
	refuse := func(err error) (upload, error) {
		e.reply(conn, MsgError, []byte(err.Error()))
		return up, err
	}
	maxFrame := int64(frameHeaderSize + MaxFrameSize)
	if e.maxUploadBytes > 0 {
		maxFrame = min(maxFrame, e.maxUploadBytes)
	}
	msgType, payload, n, err := readFrame(conn, maxFrame)
	up.bytes = n
	if err == nil && msgType == MsgHello {
		e.bytesIn.Add(int64(n))
		if _, err := parseHello(payload); err != nil {
			return refuse(err)
		}
		up.negotiated = true
		if err := e.reply(conn, MsgHelloAck, encodeHelloAck(e.maxUploadBytes)); err != nil {
			return up, fmt.Errorf("transport: writing hello ack: %w", err)
		}
		msgType, payload, n, err = readFrame(conn, maxFrame)
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
	e.bytesIn.Add(int64(n))
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
	if up.model != nil {
		up.siteID = up.model.SiteID
	}
	return up, nil
}
