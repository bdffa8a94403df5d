package model

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/wire"
)

// A LocalDelta is one streaming upload: the site's whole LocalModel under a
// sequence number. A streaming site sends its model, not a diff against the
// acknowledged one: when half the window turns over between uploads the Scor
// selection moves so far that a diff of ids, removals and additions costs
// more than the model itself (docs/streaming.md §2). The type keeps its name
// because the repository benchmark (bench/, frozen) compiles against it.
type LocalDelta struct {
	// Seq counts the site's acknowledged uploads: 1 for its first, one more
	// after each ack. The server echoes it in the ack.
	Seq uint64 `json:"seq"`
	// Model is the site's local model over its window.
	Model *LocalModel `json:"model"`
}

// Validate checks structural soundness of a received upload; the server
// applies it before storing the model.
func (d *LocalDelta) Validate() error {
	if d.Seq == 0 {
		return fmt.Errorf("model: upload with sequence number 0")
	}
	if d.Model == nil {
		return fmt.Errorf("model: upload without a model")
	}
	return d.Model.Validate()
}

// tagLocalDelta extends the wire tag set of encode.go.
const tagLocalDelta byte = 0x44 // 'D'

// deltaHeaderSize is the tag, version and sequence number in front of the
// LocalModel frame.
const deltaHeaderSize = 2 + 8

// MarshalBinary encodes the upload as its tag, version and sequence number
// followed by the LocalModel frame verbatim, one allocation total like the
// model encoders.
func (d *LocalDelta) MarshalBinary() ([]byte, error) {
	if d.Model == nil {
		return nil, fmt.Errorf("model: upload without a model")
	}
	w := wire.NewWriter(make([]byte, 0, d.EncodedSize()))
	w.U8(tagLocalDelta)
	w.U8(wireVersion)
	w.U64(d.Seq)
	d.Model.write(&w)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes an upload, rejecting trailing bytes.
func (d *LocalDelta) UnmarshalBinary(data []byte) error {
	n, err := d.UnmarshalBinaryPrefix(data)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("model: %d trailing bytes after delta", len(data)-n)
	}
	return nil
}

// UnmarshalBinaryPrefix decodes an upload from the beginning of data and
// returns the number of bytes consumed; like the local model, the encoding
// is self-delimiting so the transport can append trailer sections.
func (d *LocalDelta) UnmarshalBinaryPrefix(data []byte) (int, error) {
	r := wire.NewReader(data)
	readHeader(&r, tagLocalDelta, "delta")
	d.Seq = r.U64()
	if r.Err() != nil {
		return 0, r.Err()
	}
	d.Model = new(LocalModel)
	n, err := d.Model.UnmarshalBinaryPrefix(data[r.Pos():])
	if err != nil {
		return 0, err
	}
	return r.Pos() + n, nil
}

// EncodedSize returns the wire size of the upload in bytes — the streaming
// uplink cost of one change round: the model's size plus 10 B.
func (d *LocalDelta) EncodedSize() int { return deltaHeaderSize + d.Model.wireSize() }

// DeltaTracker numbers a streaming site's uploads. Delta wraps a model under
// the next sequence number; Commit advances the count once the server
// acknowledged that upload, so a failed upload goes out again under the same
// number.
type DeltaTracker struct {
	seq uint64
}

// NewDeltaTracker returns a tracker whose first upload has sequence number 1.
func NewDeltaTracker() *DeltaTracker { return &DeltaTracker{} }

// Seq returns the last committed sequence number (0 before any commit).
func (t *DeltaTracker) Seq() uint64 { return t.seq }

// Delta wraps m as the next upload. It does not advance the count.
func (t *DeltaTracker) Delta(m *LocalModel) *LocalDelta {
	return &LocalDelta{Seq: t.seq + 1, Model: m}
}

// Commit records an acknowledged upload.
func (t *DeltaTracker) Commit(d *LocalDelta) { t.seq = d.Seq }
