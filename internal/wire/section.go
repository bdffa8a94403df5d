package wire

import (
	"encoding/binary"
	"fmt"
)

// A section area is zero or more sections back to back, each framed as
//
//	[0]    section id
//	[1:5]  body length, uint32 (version byte and fields)
//	[5]    body version
//	[6:..] fields
//
// The transport appends such an area to its uploads and uses one as the
// whole payload of its handshake and ack messages, so either side can grow
// an exchange without a new message type (docs/transport.md §1.1).

// Section is one kind of section: the id it is framed under, the body
// version this build writes and reads, and its field list.
type Section[T any] struct {
	ID      byte
	Version byte
	// Write appends v's fields.
	Write func(w *Writer, v T)
	// Read reads the fields of a Version body. It may stop before the end:
	// fields a newer encoder appended are ignored. It fails r to have the
	// section ignored.
	Read func(r *Reader) T
}

// Append appends v to dst as one section and returns the extended slice.
func (s Section[T]) Append(dst []byte, v T) []byte {
	w := NewWriter(dst)
	w.U8(s.ID)
	at := len(w.buf)
	w.U32(0) // body length, patched below
	w.U8(s.Version)
	s.Write(&w, v)
	binary.LittleEndian.PutUint32(w.buf[at:], uint32(len(w.buf)-at-4))
	return w.buf
}

// Into returns the Decoder that stores the last readable section of this
// kind in a section area into *dst; *dst is untouched when there is none.
func (s Section[T]) Into(dst **T) Decoder {
	return Decoder{id: s.ID, version: s.Version, read: func(r *Reader) {
		if v := s.Read(r); r.err == nil {
			*dst = &v
		}
	}}
}

// Decoder reads one kind of section for ReadSections; see Section.Into.
type Decoder struct {
	id, version byte
	read        func(r *Reader)
}

// ReadSections walks a section area once and applies the versioning rules
// of docs/transport.md §1.1: a section whose id no decoder knows is
// skipped, a known id under another body version is ignored, and a known
// version's decoder reads the prefix it knows, ignoring appended fields. A
// body its decoder cannot read is ignored too. A truncated header, or a
// body length beyond the bytes left, is an error: the area passed the frame
// CRC, so it came from a broken encoder.
func ReadSections(data []byte, decoders ...Decoder) error {
	for len(data) > 0 {
		h := NewReader(data)
		id, n := h.U8(), h.U32()
		if h.err != nil {
			return fmt.Errorf("wire: truncated section header: %d trailing bytes", len(data))
		}
		data = data[h.pos:]
		if uint64(n) > uint64(len(data)) {
			return fmt.Errorf("wire: section 0x%02x advertises %d bytes, %d remain", id, n, len(data))
		}
		body := NewReader(data[:n])
		data = data[n:]
		for _, d := range decoders {
			if d.id == id {
				if v := body.U8(); body.err == nil && v == d.version {
					d.read(&body)
				}
				break
			}
		}
	}
	return nil
}
