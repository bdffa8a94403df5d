package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// classifyBatch is a fixed 256-point 2-d request batch: finite coordinates
// only, with negative zeros, subnormals and large magnitudes among them so
// the digest pins the float encoding bit for bit.
func classifyBatch() []geom.Point {
	negZero := math.Copysign(0, -1)
	pts := make([]geom.Point, 256)
	for i := range pts {
		x := float64(i)/7 - 18
		y := float64(i*i%97)/13 - 3.5
		switch i % 16 {
		case 3:
			x = negZero
		case 7:
			y = negZero
		case 11:
			x, y = 5e-324, -1e300
		}
		pts[i] = geom.Point{x, y}
	}
	return pts
}

// classifyLabels is a fixed 256-label reply: noise, small ids and the int32
// extremes.
func classifyLabels() []cluster.ID {
	labels := make([]cluster.ID, 256)
	for i := range labels {
		labels[i] = cluster.ID(i%9 - 1)
	}
	labels[100] = math.MaxInt32
	labels[200] = math.MinInt32
	return labels
}

// TestClassifyWireIdentity pins the bytes of the classify protocol: the
// point list a client sends (transport.EncodePoints) and the reply the
// front end answers with (EncodeReply). Whatever moves behind these two
// encoders, a current-version client and server must keep putting exactly
// these bytes on the wire. The digests were recorded at commit 80aba87,
// before the codecs moved into internal/wire.
func TestClassifyWireIdentity(t *testing.T) {
	const (
		wantPoints = "bd7e1c510fb690b8a39a9c7b4f807910ac8578a2e5513cd421a12825812af68a"
		wantReply  = "68cc91791aaa86a4464702cda0e82cf91c4d8d1d566a12f092864538c613bd3d"
	)
	pts := classifyBatch()
	req := transport.EncodePoints(pts)
	if got := digest(req); got != wantPoints {
		t.Errorf("EncodePoints digest = %s, want %s", got, wantPoints)
	}
	got, err := transport.DecodePoints(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		for d := range pts[i] {
			if math.Float64bits(got[i][d]) != math.Float64bits(pts[i][d]) {
				t.Fatalf("point %d dim %d decoded as %v, want %v", i, d, got[i][d], pts[i][d])
			}
		}
	}
	if !bytes.Equal(transport.EncodePoints(got), req) {
		t.Error("decoded point list does not re-encode to the same bytes")
	}

	labels := classifyLabels()
	reply := EncodeReply(0x0102030405060708, labels)
	if got := digest(reply); got != wantReply {
		t.Errorf("EncodeReply digest = %s, want %s", got, wantReply)
	}
	version, gotLabels, err := DecodeReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	if version != 0x0102030405060708 || len(gotLabels) != len(labels) {
		t.Fatalf("DecodeReply = version %#x, %d labels", version, len(gotLabels))
	}
	for i := range labels {
		if gotLabels[i] != labels[i] {
			t.Fatalf("label %d decoded as %d, want %d", i, gotLabels[i], labels[i])
		}
	}
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
