package transport

import (
	"bytes"
	"testing"
)

// FuzzReadFrame asserts that no byte sequence can panic the frame decoder,
// that accepted frames are bounded, and that every accepted frame
// round-trips byte-identically through WriteFrame (the codec is canonical).
// Seed corpus: testdata/fuzz/FuzzReadFrame plus the f.Add seeds below.
func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	WriteFrame(&valid, 0x01, []byte("seed payload")) // the retired bare-model type: the seed bytes stay as recorded
	f.Add(valid.Bytes())
	var empty bytes.Buffer
	WriteFrame(&empty, MsgError, nil)
	f.Add(empty.Bytes())
	f.Add([]byte{})                                     // nothing
	f.Add(valid.Bytes()[:frameHeaderSize-1])            // truncated header
	f.Add(valid.Bytes()[:frameHeaderSize+3])            // truncated payload
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 0, 0})         // wrong version
	f.Add([]byte{2, 1, 255, 255, 255, 255, 0, 0, 0, 0}) // oversized length

	f.Fuzz(func(t *testing.T, data []byte) {
		msgType, payload, n, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > MaxFrameSize {
			t.Fatalf("accepted oversized payload of %d bytes", len(payload))
		}
		if n != frameHeaderSize+len(payload) || n > len(data) {
			t.Fatalf("frame size %d inconsistent with payload %d / input %d", n, len(payload), len(data))
		}
		var buf bytes.Buffer
		if _, werr := WriteFrame(&buf, msgType, payload); werr != nil {
			t.Fatalf("re-encoding accepted frame: %v", werr)
		}
		if !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("frame did not round-trip canonically")
		}
	})
}
