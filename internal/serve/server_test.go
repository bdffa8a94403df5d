package serve

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// startTestServer boots a classification front end on a loopback port with
// its own registry and metrics, and tears everything down with the test.
func startTestServer(t *testing.T, maxBatch int) (*Server, *Registry, *Metrics) {
	t.Helper()
	reg := NewRegistry("")
	m := NewMetrics(reg)
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Registry: reg,
		Metrics:  m,
		Timeout:  5 * time.Second,
		MaxBatch: maxBatch,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return srv, reg, m
}

// TestServerEndToEnd drives the full network path: the labels a client
// receives over TCP must match an in-process Relabel of the same points,
// and the reply version must be the registry's.
func TestServerEndToEnd(t *testing.T) {
	srv, reg, m := startTestServer(t, 0)
	pts, global := buildTestModel(t, model.RepScor, 42)
	if _, err := reg.Publish(global); err != nil {
		t.Fatal(err)
	}
	want, err := dbdc.Relabel(pts, global)
	if err != nil {
		t.Fatal(err)
	}

	client, err := Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Single-point requests.
	for _, i := range []int{0, len(pts) / 2, len(pts) - 1} {
		id, version, err := client.Classify(pts[i])
		if err != nil {
			t.Fatalf("Classify(%d): %v", i, err)
		}
		if version != 1 {
			t.Fatalf("Classify(%d) reported version %d, want 1", i, version)
		}
		if id != want[i] {
			t.Fatalf("Classify(%d) = %v, want %v", i, id, want[i])
		}
	}
	// Batch request over the same persistent connection.
	labels, version, err := client.ClassifyBatch(pts)
	if err != nil {
		t.Fatalf("ClassifyBatch: %v", err)
	}
	if version != 1 {
		t.Fatalf("batch reported version %d, want 1", version)
	}
	for i := range pts {
		if labels[i] != want[i] {
			t.Fatalf("batch label %d = %v, want %v", i, labels[i], want[i])
		}
	}
	if m.Requests.Load() < 4 || m.Points.Load() < uint64(len(pts))+3 {
		t.Fatalf("metrics: requests=%d points=%d", m.Requests.Load(), m.Points.Load())
	}
	// The server observes a request's latency after the reply is written
	// (the observation includes the write), so the client can hold the last
	// reply a moment before the last observation lands.
	for deadline := time.Now().Add(2 * time.Second); m.Latency.Count() != m.Requests.Load(); {
		if time.Now().After(deadline) {
			t.Fatalf("latency observations %d != requests %d", m.Latency.Count(), m.Requests.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerHotSwapBetweenRequests: a publish between two requests on one
// persistent connection changes the version (and labels) the second
// request sees — the snapshot is pinned per request, not per connection.
func TestServerHotSwapBetweenRequests(t *testing.T) {
	srv, reg, _ := startTestServer(t, 0)
	if _, err := reg.Publish(versionedModel(1)); err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	id, version, err := client.Classify(geom.Point{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 || int64(id) != 1 {
		t.Fatalf("before swap: version=%d id=%v", version, id)
	}
	if _, err := reg.Publish(versionedModel(2)); err != nil {
		t.Fatal(err)
	}
	id, version, err = client.Classify(geom.Point{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 || int64(id) != 2 {
		t.Fatalf("after swap: version=%d id=%v", version, id)
	}
}

// TestServerNoModelYet: requests against an empty registry get a
// retryable MsgError and the connection stays usable.
func TestServerNoModelYet(t *testing.T) {
	srv, reg, m := startTestServer(t, 0)
	client, err := Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, _, err := client.Classify(geom.Point{0, 0}); err == nil ||
		!strings.Contains(err.Error(), "no model published") {
		t.Fatalf("empty registry answered with %v", err)
	}
	// Same connection works once a model lands: "no model" is not fatal.
	if _, err := reg.Publish(versionedModel(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Classify(geom.Point{0, 0}); err != nil {
		t.Fatalf("classify after publish on the same connection: %v", err)
	}
	if m.Errors.Load() != 1 {
		t.Fatalf("error counter %d, want 1", m.Errors.Load())
	}
}

// TestServerRejectsBadRequests covers the protocol-violation paths, each
// on a fresh connection because violations close the connection.
func TestServerRejectsBadRequests(t *testing.T) {
	srv, reg, _ := startTestServer(t, 4)
	if _, err := reg.Publish(versionedModel(1)); err != nil {
		t.Fatal(err)
	}
	expectErr := func(name, fragment string, f func(c *Client) error) {
		t.Helper()
		c, err := Dial(srv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := f(c); err == nil || !strings.Contains(err.Error(), fragment) {
			t.Fatalf("%s: got %v, want error containing %q", name, err, fragment)
		}
	}
	expectErr("wrong dimension", "dimension", func(c *Client) error {
		_, _, err := c.Classify(geom.Point{1, 2, 3})
		return err
	})
	expectErr("non-finite coordinate", "finite", func(c *Client) error {
		_, _, err := c.Classify(geom.Point{nan(), 0})
		return err
	})
	expectErr("oversized batch", "exceeds the cap", func(c *Client) error {
		big := make([]geom.Point, 5) // cap is 4
		for i := range big {
			big[i] = geom.Point{0, 0}
		}
		_, _, err := c.ClassifyBatch(big)
		return err
	})
	expectErr("empty batch frame", "want exactly 1", func(c *Client) error {
		_, _, err := c.exchange(transport.MsgClassify, nil)
		return err
	})
	expectErr("unknown frame type", "unexpected message type", func(c *Client) error {
		_, _, err := c.exchange(transport.MsgError, []geom.Point{{0, 0}})
		return err
	})
}

// TestServerCorruptFrame: a frame with a broken checksum gets a
// best-effort MsgError back and the connection is closed server-side.
func TestServerCorruptFrame(t *testing.T) {
	srv, reg, _ := startTestServer(t, 0)
	if _, err := reg.Publish(versionedModel(1)); err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var buf bytes.Buffer
	if _, err := transport.WriteFrame(&buf, transport.MsgClassify, transport.EncodePoints([]geom.Point{{0, 0}})); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	frame[len(frame)-1] ^= 0xff // corrupt the payload under the CRC
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	msgType, payload, _, err := transport.ReadFrame(conn)
	if err != nil {
		t.Fatalf("no error reply to a corrupt frame: %v", err)
	}
	if msgType != transport.MsgError || !strings.Contains(string(payload), "checksum") {
		t.Fatalf("corrupt frame answered with type 0x%02x payload %q", msgType, payload)
	}
}
