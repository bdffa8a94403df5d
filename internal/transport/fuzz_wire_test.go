package transport_test

import (
	"bytes"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/serve"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// FuzzWireDecoders feeds arbitrary bytes to every decoder of a payload a
// peer controls outside the model frames (those have their own targets in
// internal/model): the upload section area, the delta ack, both handshake
// payloads, the classify point list and the classify reply. None may panic,
// and an accepted point list or reply must re-encode to the same bytes —
// both codecs are canonical. Seed corpus: testdata/fuzz/FuzzWireDecoders
// plus the f.Add seeds below.
func FuzzWireDecoders(f *testing.F) {
	f.Add(transport.EncodePoints([]geom.Point{{1.5, -2}, {0, 3}}))
	f.Add(transport.EncodePoints(nil))
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0})                          // zero-dimensional points
	f.Add([]byte{0, 0, 0, 0, 3, 0, 0, 0})                          // empty list declaring a dimension
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0})                 // truncated coordinate
	f.Add(serve.EncodeReply(7, []cluster.ID{0, cluster.Noise, 3})) // a reply
	f.Add(serve.EncodeReply(0, nil))
	f.Add([]byte{0x05, 18, 0, 0, 0, 1, 0, 9, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0}) // delta ack
	f.Add([]byte{0x04, 5, 0, 0, 0, 1, 8, 0, 0, 0})                                         // client hello
	f.Add([]byte{0x03, 9, 0, 0, 0, 1, 0, 0, 16, 0, 0, 0, 0, 0})                            // budget cap
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 0xff})                                            // oversized section body

	f.Fuzz(func(t *testing.T, data []byte) {
		transport.ParseSections(data)
		transport.ParseDeltaAck(data)
		transport.ParseHello(data)
		transport.ParseHelloAck(data)
		if pts, err := transport.DecodePoints(data); err == nil {
			if re := transport.EncodePoints(pts); !bytes.Equal(re, data) {
				t.Fatalf("accepted point list re-encodes to %x, was %x", re, data)
			}
		}
		if version, labels, err := serve.DecodeReply(data); err == nil {
			if re := serve.EncodeReply(version, labels); !bytes.Equal(re, data) {
				t.Fatalf("accepted reply re-encodes to %x, was %x", re, data)
			}
		}
	})
}
