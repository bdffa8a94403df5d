// Package wire is the module's one binary codec. Every byte format DBDC puts
// on the wire — the model frames, the transport's frame header and upload
// sections, the classify protocol's point lists and replies — is written
// with a Writer and read with a Reader, so byte order and bounds checking
// are decided here and nowhere else.
//
// All integers and floats are little-endian; a float64 travels as its IEEE
// 754 bit pattern, so negative zeros and NaN payloads survive a round trip.
// A Reader's error is sticky: once a read runs past the end of its data or a
// caller fails it, every later read returns the zero value and Err reports
// the first failure, so a decoder reads its whole field list and checks once.
//
// The package also owns the section framing of the transport's extensible
// payloads (see Section and ReadSections).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends little-endian encodings to one byte slice: U8 to U64
// unsigned integers, I32 a two's-complement int32, F64 a float64's IEEE 754
// bits, Str a string behind a uint32 length and Str16 one (shorter than
// 64 KiB) behind a uint16 length.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer appending to dst. An encoder that knows its
// exact size passes a slice with that much spare capacity, and the whole
// encode is then one allocation.
func NewWriter(dst []byte) Writer { return Writer{buf: dst} }

// Bytes returns everything written, dst's original content included.
func (w *Writer) Bytes() []byte { return w.buf }

func (w *Writer) U8(v byte)     { w.buf = append(w.buf, v) }
func (w *Writer) U16(v uint16)  { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *Writer) U32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) I32(v int32)   { w.U32(uint32(v)) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *Writer) Str16(s string) {
	w.U16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes what a Writer encodes, with a sticky bounds error (see the
// package comment). Str and StrInterned fail on a length above their limit.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Err returns the first failure, nil while every read fit.
func (r *Reader) Err() error { return r.err }

// Failf fails the reader with a formatted error, unless it already failed.
func (r *Reader) Failf(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Pos returns the number of bytes consumed, Len the number left.
func (r *Reader) Pos() int { return r.pos }
func (r *Reader) Len() int { return len(r.data) - r.pos }

// Skip consumes n bytes unread and reports whether they were there.
func (r *Reader) Skip(n int) bool {
	r.take(n)
	return r.err == nil
}

// zeros is what a failed fixed-size read decodes.
var zeros [8]byte

// take consumes n bytes. When fewer are left it fails r; then, and on a
// reader that already failed, it returns eight zero bytes, so a fixed-size
// field decodes as zero and a variable-length one must check Err.
func (r *Reader) take(n int) []byte {
	if r.err == nil && (n < 0 || n > len(r.data)-r.pos) {
		r.Failf("wire: truncated: need %d bytes at offset %d of %d", n, r.pos, len(r.data))
	}
	if r.err != nil {
		return zeros[:]
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *Reader) U8() byte             { return r.take(1)[0] }
func (r *Reader) U16() uint16          { return binary.LittleEndian.Uint16(r.take(2)) }
func (r *Reader) U32() uint32          { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *Reader) U64() uint64          { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *Reader) I32() int32           { return int32(r.U32()) }
func (r *Reader) F64() float64         { return math.Float64frombits(r.U64()) }
func (r *Reader) Str(limit int) string { return r.string(r.bytes(limit)) }
func (r *Reader) Str16() string        { return r.string(r.take(int(r.U16()))) }

// bytes reads a uint32 length, at most limit, and that many bytes.
func (r *Reader) bytes(limit int) []byte {
	n := r.U32()
	if r.err == nil && uint64(n) > uint64(limit) {
		r.Failf("wire: string length %d exceeds limit %d", n, limit)
	}
	return r.take(int(n))
}

// string converts b, or returns "" once r has failed.
func (r *Reader) string(b []byte) string {
	if r.err != nil {
		return ""
	}
	return string(b)
}

// StrInterned is Str with deduplication through intern: repeated strings
// (the handful of site ids shared by thousands of global representatives)
// decode to one shared allocation. The map lookup with a string(b) key
// expression does not allocate on a hit.
func (r *Reader) StrInterned(limit int, intern map[string]string) string {
	b := r.bytes(limit)
	if r.err != nil {
		return ""
	}
	if s, ok := intern[string(b)]; ok {
		return s
	}
	s := string(b)
	intern[s] = s
	return s
}
