package serve

import (
	"net"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// TestClassifyBatchAllocs is the serving path's allocation gate: once a
// connection's buffers have grown to the batch, a 256-point ClassifyBatch
// against an in-process front end with metrics on allocates only the labels
// it returns to the caller, counted process-wide, the server's goroutine
// included. Skipped under the race detector, whose instrumentation perturbs
// allocation accounting.
func TestClassifyBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	srv, reg, _ := startTestServer(t, 0)
	pts, global := buildTestModel(t, model.RepScor, 42)
	if _, err := reg.Publish(global); err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	batch := pts[:256]
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := client.ClassifyBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("a 256-point ClassifyBatch allocates %v times, want <= 1 (the returned labels)", allocs)
	}
}

// keptBytes is the size of s's backing array.
func keptBytes[T any](s []T) uintptr {
	var zero T
	return uintptr(cap(s)) * unsafe.Sizeof(zero)
}

// TestConnBuffersReuse drives one connection through requests of changing
// size over the buffers it keeps: a 256-point batch, a 1-point batch after
// it, a batch above maxKeptBytes, another 1-point batch and a truncated
// point list. Every batch gets the labels Relabel gives, the truncated
// request is refused as a protocol violation, and afterwards neither end
// keeps a buffer larger than maxKeptBytes.
func TestConnBuffersReuse(t *testing.T) {
	pts, global := buildTestModel(t, model.RepScor, 42)
	reg := NewRegistry("")
	if _, err := reg.Publish(global); err != nil {
		t.Fatal(err)
	}
	srv := &Server{cfg: ServerConfig{Registry: reg, Timeout: 5 * time.Second, MaxBatch: 100_000}}
	serverEnd, clientEnd := net.Pipe()
	var b connBuffers
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer serverEnd.Close()
		srv.handleConn(serverEnd, &b)
	}()
	client := &Client{conn: clientEnd, timeout: 5 * time.Second}
	defer func() {
		client.Close()
		<-done
	}()

	// 70 000 2-d points make a 1.12 MB request: its payload, coordinates
	// and point headers are each above the bound.
	big := make([]geom.Point, 70_000)
	for i := range big {
		big[i] = pts[i%len(pts)]
	}
	if n := len(transport.EncodePoints(big)); n <= maxKeptBytes {
		t.Fatalf("the large batch encodes to %d bytes, not above the %d-byte bound", n, maxKeptBytes)
	}
	for _, batch := range [][]geom.Point{pts[:256], pts[300:301], big, pts[7:8]} {
		want, err := dbdc.Relabel(batch, global)
		if err != nil {
			t.Fatal(err)
		}
		labels, version, err := client.ClassifyBatch(batch)
		if err != nil {
			t.Fatalf("%d-point batch: %v", len(batch), err)
		}
		if version != 1 || len(labels) != len(want) {
			t.Fatalf("%d-point batch: version %d, %d labels", len(batch), version, len(labels))
		}
		for i := range want {
			if labels[i] != want[i] {
				t.Fatalf("%d-point batch: label %d = %v, want %v", len(batch), i, labels[i], want[i])
			}
		}
	}
	if keptBytes(client.out) > maxKeptBytes || keptBytes(client.in) > maxKeptBytes {
		t.Errorf("the client keeps %d request and %d reply bytes, bound %d",
			keptBytes(client.out), keptBytes(client.in), maxKeptBytes)
	}

	// A point list cut short by one coordinate, in an intact frame.
	truncated := transport.AppendPoints(transport.StartFrame(nil), pts[:4])
	clientEnd.SetDeadline(time.Now().Add(5 * time.Second))
	_, err := transport.RoundTrip(clientEnd, transport.MsgClassifyBatch, truncated[:len(truncated)-8], transport.MsgClassifyReply, nil)
	if err == nil || !strings.Contains(err.Error(), "point list has") {
		t.Fatalf("truncated point list answered with %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the server kept the connection after a truncated request")
	}
	for name, n := range map[string]uintptr{
		"request": keptBytes(b.in), "points": keptBytes(b.pts), "coordinates": keptBytes(b.coords),
		"labels": keptBytes(b.labels), "reply": keptBytes(b.out),
	} {
		if n > maxKeptBytes {
			t.Errorf("the connection keeps a %d-byte %s buffer, bound %d", n, name, maxKeptBytes)
		}
	}
	if b.labels == nil || b.out == nil {
		t.Error("the connection dropped the buffers of its last answered request")
	}
}
