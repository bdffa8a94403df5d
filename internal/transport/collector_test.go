package transport

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/model"
)

// frameOf encodes one whole frame.
func frameOf(t *testing.T, msgType byte, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, msgType, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stallFirst opens a connection to addr, waits until the server stamped it
// (so every later connection is accepted after it) and writes the first half
// of frame; the caller writes the rest when the stall should end.
func stallFirst(t *testing.T, c *collector, addr string, frame []byte) (conn net.Conn, rest []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	for deadline := time.Now().Add(5 * time.Second); c.accepted.Load() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server never took the first connection")
		}
	}
	half := len(frame) / 2
	if _, err := conn.Write(frame[:half]); err != nil {
		t.Fatal(err)
	}
	return conn, frame[half:]
}

// awaitBytesIn waits until the server has read n upload bytes.
func awaitBytesIn(t *testing.T, c *collector, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.BytesIn() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the server read %d upload bytes, want %d", c.BytesIn(), n)
		}
	}
}

// requireUnanswered asserts that the server closes conn without a reply.
func requireUnanswered(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if msgType, _, _, err := ReadFrame(conn); err == nil {
		t.Fatalf("the stale attempt was answered with message type 0x%02x", msgType)
	}
}

// TestRoundRetryBeatsLateAttempt: a site's first connection stalls with its
// upload half-written, and the site retries on a second connection, which
// the round reads first. When the first connection's upload completes after
// all, the round keeps the retry — its connection was accepted later — and
// broadcasts on it; the abandoned connection is closed unanswered.
func TestRoundRetryBeatsLateAttempt(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 1, testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := runRound(srv, RoundOptions{})
	m := mustLocalModel(t, "site-1", blob(rand.New(rand.NewSource(41)), 0, 0, 200))
	payload, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	frame := frameOf(t, MsgLocalModelTimed, payload)

	first, rest := stallFirst(t, &srv.collector, srv.Addr(), frame)
	retry, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer retry.Close()
	if _, err := retry.Write(frame); err != nil {
		t.Fatal(err)
	}
	awaitBytesIn(t, &srv.collector, int64(len(frame)))
	if _, err := first.Write(rest); err != nil {
		t.Fatal(err)
	}

	retry.SetDeadline(time.Now().Add(5 * time.Second))
	if msgType, _, _, err := ReadFrame(retry); err != nil || msgType != MsgGlobalModel {
		t.Fatalf("the retry got no global model: message type 0x%02x, %v", msgType, err)
	}
	requireUnanswered(t, first)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.report.OK != 1 || r.report.Retried != 1 || r.report.DownlinkBytes == 0 {
		t.Fatalf("round report:\n%s", r.report)
	}
}

// TestUpdateServerRetryBeatsLateAttempt: upload k's first connection stalls
// half-written; the site retries upload k and then sends upload k+1, both
// acked. When the stalled first try completes after all, it is stale: the
// server keeps upload k+1, does not rebuild and does not answer it.
func TestUpdateServerRetryBeatsLateAttempt(t *testing.T) {
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	published := 0
	srv.SetOnGlobal(func(*model.GlobalModel) { published++ })
	go srv.Serve(0)

	rng := rand.New(rand.NewSource(42))
	pts := blob(rng, 0, 0, 200)
	mk := localModelOf(t, "st-1", pts)
	mk1 := localModelOf(t, "st-1", append(pts, blob(rng, 30, 30, 200)...))
	tracker := model.NewDeltaTracker()
	dk := deltaOf(tracker, mk)
	payload, err := dk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	first, rest := stallFirst(t, &srv.collector, srv.Addr(), frameOf(t, MsgModelDelta, payload))

	client := &StreamClient{Addr: srv.Addr(), Timeout: 5 * time.Second}
	for _, d := range []*model.LocalDelta{dk, deltaOf(tracker, mk1)} {
		if _, err := client.Upload(nil, d, nil); err != nil {
			t.Fatalf("upload %d: %v", d.Seq, err)
		}
	}
	if _, err := first.Write(rest); err != nil {
		t.Fatal(err)
	}
	requireUnanswered(t, first)

	if !sameModel(t, srv, mk1) {
		t.Fatal("the stale first try of upload k replaced upload k+1")
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.version != 2 || published != 2 {
		t.Fatalf("version %d after %d publishes, want 2 and 2: the stale upload rebuilt", srv.version, published)
	}
}
