package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	nanBits := uint64(0x7ff8_0000_dead_beef)
	w := NewWriter([]byte{0xaa})
	w.U8(7)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(1 << 63)
	w.I32(-2)
	w.F64(math.Copysign(0, -1))
	w.F64(math.Float64frombits(nanBits))
	w.Str("site-a")
	w.Str16("src")
	w.Str("site-a")
	want := []byte{0xaa, 7, 0xef, 0xbe, 0xef, 0xbe, 0xad, 0xde}
	if got := w.Bytes(); !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("prefix % x, want little-endian % x", got[:len(want)], want)
	}

	r := NewReader(w.Bytes())
	if r.U8() != 0xaa || r.U8() != 7 || r.U16() != 0xbeef || r.U32() != 0xdeadbeef || r.U64() != 1<<63 || r.I32() != -2 {
		t.Fatal("integer fields did not round-trip")
	}
	if z := r.F64(); z != 0 || !math.Signbit(z) {
		t.Fatalf("negative zero decoded as %v", z)
	}
	if b := math.Float64bits(r.F64()); b != nanBits {
		t.Fatalf("NaN payload decoded as %#x, want %#x", b, nanBits)
	}
	intern := map[string]string{}
	a := r.StrInterned(16, intern)
	if s := r.Str16(); s != "src" {
		t.Fatalf("Str16 = %q", s)
	}
	b := r.StrInterned(16, intern)
	if a != "site-a" || b != "site-a" || len(intern) != 1 {
		t.Fatalf("interned strings %q %q, table %v", a, b, intern)
	}
	if r.Err() != nil || r.Len() != 0 || r.Pos() != len(w.Bytes()) {
		t.Fatalf("err %v, %d bytes left at %d", r.Err(), r.Len(), r.Pos())
	}
}

// Once a read runs short, the error sticks and every later read returns
// the zero value, even one the remaining bytes could satisfy.
func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U32(); v != 0 || r.Err() == nil {
		t.Fatalf("short U32 = %d, err %v", v, r.Err())
	}
	first := r.Err()
	if v := r.U8(); v != 0 || r.Err() != first || r.Pos() != 0 {
		t.Fatalf("read after failure = %d at %d, err %v", v, r.Pos(), r.Err())
	}
	r.Failf("later failure")
	if r.Err() != first || !strings.Contains(first.Error(), "truncated") {
		t.Fatalf("err %v, want the first truncation", r.Err())
	}
	if r := NewReader([]byte{1, 2}); r.Skip(3) || r.Err() == nil {
		t.Fatal("Skip past the end succeeded")
	}
}

func TestReaderStringLimit(t *testing.T) {
	w := NewWriter(nil)
	w.Str("toolong")
	r := NewReader(w.Bytes())
	if s := r.Str(3); s != "" || r.Err() == nil {
		t.Fatalf("over-limit string = %q, err %v", s, r.Err())
	}
	r = NewReader([]byte{0xff, 0xff, 0xff, 0xff, 'a'})
	if s := r.Str(1 << 40); s != "" || r.Err() == nil {
		t.Fatalf("string longer than the data = %q, err %v", s, r.Err())
	}
	r = NewReader([]byte{5, 0, 'a'})
	if s := r.Str16(); s != "" || r.Err() == nil {
		t.Fatalf("short Str16 = %q, err %v", s, r.Err())
	}
}

// pair is a test section of two uint32 fields.
var pair = Section[[2]uint32]{
	ID:      0x01,
	Version: 1,
	Write:   func(w *Writer, v [2]uint32) { w.U32(v[0]); w.U32(v[1]) },
	Read:    func(r *Reader) [2]uint32 { return [2]uint32{r.U32(), r.U32()} },
}

// raw frames one section by hand.
func raw(id, version byte, fields ...byte) []byte {
	n := 1 + len(fields)
	return append([]byte{id, byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24), version}, fields...)
}

func TestSectionAppendFraming(t *testing.T) {
	got := pair.Append([]byte{0xee}, [2]uint32{3, 4})
	want := append([]byte{0xee}, raw(0x01, 1, 3, 0, 0, 0, 4, 0, 0, 0)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("Append = % x, want % x", got, want)
	}
}

func cat(parts ...[]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// The versioning rules of docs/transport.md §1.1, one row each.
func TestReadSectionsVersioning(t *testing.T) {
	valid := pair.Append(nil, [2]uint32{5, 6})
	cases := []struct {
		name    string
		data    []byte
		want    *[2]uint32
		wantErr bool
	}{
		{"empty area", nil, nil, false},
		{"known section", valid, &[2]uint32{5, 6}, false},
		{"unknown id skipped", cat(raw(0x7f, 1, 9, 9, 9), valid), &[2]uint32{5, 6}, false},
		{"unknown version ignored", raw(0x01, 2, 5, 0, 0, 0, 6, 0, 0, 0), nil, false},
		{"appended fields ignored", raw(0x01, 1, 5, 0, 0, 0, 6, 0, 0, 0, 0xff, 0xff), &[2]uint32{5, 6}, false},
		{"short body ignored", raw(0x01, 1, 5, 0, 0, 0, 6), nil, false},
		{"empty body ignored", []byte{0x01, 0, 0, 0, 0}, nil, false},
		{"last readable wins", cat(pair.Append(nil, [2]uint32{1, 2}), valid, raw(0x01, 1, 7)), &[2]uint32{5, 6}, false},
		{"truncated header", cat(valid, []byte{0x01, 0, 0}), nil, true},
		{"body past the end", cat(valid, []byte{0x01, 9, 0, 0, 0, 1}), nil, true},
		{"maximum body length", []byte{0x01, 0xff, 0xff, 0xff, 0xff}, nil, true},
	}
	for _, c := range cases {
		var got *[2]uint32
		err := ReadSections(c.data, pair.Into(&got))
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err %v, want error %v", c.name, err, c.wantErr)
			continue
		}
		if c.wantErr {
			continue
		}
		if (got == nil) != (c.want == nil) || (got != nil && *got != *c.want) {
			t.Errorf("%s: decoded %v, want %v", c.name, got, c.want)
		}
	}
}
