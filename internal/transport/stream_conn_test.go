package transport

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/model"
)

// countingDialer counts the connections a StreamClient dials, refusing each
// with fail when it is set.
type countingDialer struct {
	n    atomic.Int32
	fail error
}

func (d *countingDialer) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	d.n.Add(1)
	if d.fail != nil {
		return nil, d.fail
	}
	return net.DialTimeout(network, addr, timeout)
}

func (d *countingDialer) dials() int { return int(d.n.Load()) }

// streamModels returns n models of one site over growing blob sets, each
// numbered by one tracker in turn.
func streamModels(t *testing.T, siteID string, seed int64, n int) []*model.LocalDelta {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tracker := model.NewDeltaTracker()
	var deltas []*model.LocalDelta
	pts := blob(rng, 0, 0, 60)
	for i := 0; i < n; i++ {
		deltas = append(deltas, deltaOf(tracker, localModelOf(t, siteID, pts)))
		pts = append(pts, blob(rng, float64(20*(i+1)), 0, 60)...)
	}
	return deltas
}

// TestStreamClientKeepsConnection: a site's uploads go over the one
// connection its first upload dialled, and each upload arms its own
// deadline: uploads spaced wider than the client's timeout still reuse it.
func TestStreamClientKeepsConnection(t *testing.T) {
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(0)

	const timeout = 500 * time.Millisecond
	dialer := &countingDialer{}
	client := &StreamClient{Addr: srv.Addr(), Timeout: timeout, Dial: dialer.dial}
	defer client.Close()
	deltas := streamModels(t, "st-keep", 21, 4)
	for i, d := range deltas {
		if i == len(deltas)-1 {
			// Longer than the client's timeout: a deadline armed at dial
			// would have expired by now.
			time.Sleep(timeout + 100*time.Millisecond)
		}
		res, err := client.Upload(nil, d, nil)
		if err != nil {
			t.Fatalf("upload %d: %v", d.Seq, err)
		}
		if res.Seq != d.Seq {
			t.Fatalf("upload %d acked as %d", d.Seq, res.Seq)
		}
	}
	if n := dialer.dials(); n != 1 {
		t.Fatalf("%d uploads dialled %d connections, want 1", len(deltas), n)
	}
	if !sameModel(t, srv, deltas[len(deltas)-1].Model) {
		t.Fatal("the server does not hold the last upload")
	}
}

// TestStreamClientRedialsAfterIdle: the server closes a connection that sat
// idle past its timeout; the site's next upload fails on it before any
// reply byte, and goes out once more on exactly one new connection, under
// the same sequence number. A server that is alive but slow to answer — the
// upload waits for the table lock past the client's timeout — gets no
// resend: the timeout is returned.
func TestStreamClientRedialsAfterIdle(t *testing.T) {
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(0)

	dialer := &countingDialer{}
	client := &StreamClient{Addr: srv.Addr(), Timeout: 5 * time.Second, Dial: dialer.dial}
	defer client.Close()
	deltas := streamModels(t, "st-idle", 22, 3)
	if _, err := client.Upload(nil, deltas[0], nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	res, err := client.Upload(nil, deltas[1], nil)
	if err != nil {
		t.Fatalf("upload after an idle spell: %v", err)
	}
	if res.Seq != deltas[1].Seq {
		t.Fatalf("resent upload acked as %d, want %d", res.Seq, deltas[1].Seq)
	}
	if n := dialer.dials(); n != 2 {
		t.Fatalf("%d dials, want 2: the first upload's and one redial", n)
	}
	if !sameModel(t, srv, deltas[1].Model) {
		t.Fatal("the server does not hold the resent upload")
	}

	srv.mu.Lock()
	client.Timeout = 200 * time.Millisecond
	_, err = client.Upload(nil, deltas[2], nil)
	srv.mu.Unlock()
	if !isTimeout(err) {
		t.Fatalf("upload to a stalled server: err = %v, want a timeout", err)
	}
	if n := dialer.dials(); n != 2 {
		t.Fatalf("%d dials, want 2: a timeout is not resent", n)
	}
}

// isTimeout reports whether err is an I/O timeout.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestStreamClientRefusalNotResent: an upload the server refuses with a
// MsgError is returned as that permanent error without a redial, and the
// connection is dropped: the next upload dials a fresh one.
func TestStreamClientRefusalNotResent(t *testing.T) {
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	deltas := streamModels(t, "st-cap", 23, 3)
	small, large := deltas[0], deltas[2]
	// The cap admits the first model's frame, not the third's.
	srv.SetMaxUploadBytes(int64(frameHeaderSize + (small.EncodedSize()+large.EncodedSize())/2))
	go srv.Serve(0)

	dialer := &countingDialer{}
	client := &StreamClient{Addr: srv.Addr(), Timeout: 5 * time.Second, Dial: dialer.dial}
	defer client.Close()
	if _, err := client.Upload(nil, small, nil); err != nil {
		t.Fatal(err)
	}
	_, err = client.Upload(nil, large, nil)
	if err == nil || !strings.Contains(err.Error(), "server reported") || Retryable(err) {
		t.Fatalf("upload over the cap: err = %v, want the server's permanent refusal", err)
	}
	if n := dialer.dials(); n != 1 {
		t.Fatalf("%d dials after the refusal, want 1: a refusal is not resent", n)
	}
	if _, err := client.Upload(nil, small, nil); err != nil {
		t.Fatalf("upload after the refusal: %v", err)
	}
	if n := dialer.dials(); n != 2 {
		t.Fatalf("%d dials, want 2: the refusal dropped the connection", n)
	}
}

// TestStreamClientDialFailureNotRetried: a failed dial is returned at once,
// whether it opens a site's first upload or is the redial after a kept
// connection died with its server.
func TestStreamClientDialFailureNotRetried(t *testing.T) {
	refused := errors.New("no route")
	dialer := &countingDialer{fail: refused}
	client := &StreamClient{Addr: "127.0.0.1:1", Timeout: time.Second, Dial: dialer.dial}
	deltas := streamModels(t, "st-dial", 24, 2)
	if _, err := client.Upload(nil, deltas[0], nil); !errors.Is(err, refused) {
		t.Fatalf("upload through a failing dialer: err = %v, want %v", err, refused)
	}
	if n := dialer.dials(); n != 1 {
		t.Fatalf("%d dials, want 1", n)
	}

	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(0) }()
	dialer = &countingDialer{}
	client = &StreamClient{Addr: srv.Addr(), Timeout: time.Second, Dial: dialer.dial}
	defer client.Close()
	if _, err := client.Upload(nil, deltas[0], nil); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if _, err := client.Upload(nil, deltas[1], nil); err == nil {
		t.Fatal("upload to a closed server succeeded")
	}
	if n := dialer.dials(); n != 2 {
		t.Fatalf("%d dials, want 2: the first upload's and one redial", n)
	}
}

// TestStreamClientClose: Close releases the kept connection and leaves the
// client usable — the next upload dials again — and a Close without a
// connection, before the first upload or a second one, returns nil.
func TestStreamClientClose(t *testing.T) {
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(0)

	dialer := &countingDialer{}
	client := &StreamClient{Addr: srv.Addr(), Timeout: 5 * time.Second, Dial: dialer.dial}
	if err := client.Close(); err != nil {
		t.Fatalf("Close before the first upload: %v", err)
	}
	deltas := streamModels(t, "st-close", 26, 2)
	if _, err := client.Upload(nil, deltas[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	res, err := client.Upload(nil, deltas[1], nil)
	if err != nil {
		t.Fatalf("upload after Close: %v", err)
	}
	if res.Seq != deltas[1].Seq || dialer.dials() != 2 {
		t.Fatalf("upload after Close: %+v over %d dials, want seq %d over 2", res, dialer.dials(), deltas[1].Seq)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKeptUploadStampedOnceRead: a full upload on a connection accepted
// while a streaming site's connection was kept does not make the site's
// next upload on it stale. That upload is stamped once its frame has been
// read, so it replaces the full model on the kept connection, with no
// resend.
func TestKeptUploadStampedOnceRead(t *testing.T) {
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(0)

	dialer := &countingDialer{}
	client := &StreamClient{Addr: srv.Addr(), Timeout: 5 * time.Second, Dial: dialer.dial}
	defer client.Close()
	deltas := streamModels(t, "st-stamp", 27, 3)
	if _, err := client.Upload(nil, deltas[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Exchange(srv.Addr(), deltas[1].Model, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Upload(nil, deltas[2], nil); err != nil {
		t.Fatal(err)
	}
	if !sameModel(t, srv, deltas[2].Model) {
		t.Fatal("the kept connection's upload did not replace the full one")
	}
	if n := dialer.dials(); n != 1 {
		t.Fatalf("%d dials, want 1: the kept connection's upload was dropped as stale and resent", n)
	}
}

// TestHeldKeptUploadLosesToNextUpload: an upload the server has read on a
// kept connection but holds at the table lock past the client's timeout
// loses to the site's next upload, which goes out on a fresh connection
// while the first still waits. Whichever of the two the server stores
// first, the next upload is acked and its model is the one held.
func TestHeldKeptUploadLosesToNextUpload(t *testing.T) {
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(0)

	dialer := &countingDialer{}
	client := &StreamClient{Addr: srv.Addr(), Timeout: 200 * time.Millisecond, Dial: dialer.dial}
	defer client.Close()
	deltas := streamModels(t, "st-held", 28, 3)
	if _, err := client.Upload(nil, deltas[0], nil); err != nil {
		t.Fatal(err)
	}

	srv.mu.Lock()
	held := true
	defer func() {
		if held {
			srv.mu.Unlock()
		}
	}()
	if _, err := client.Upload(nil, deltas[1], nil); !isTimeout(err) {
		t.Fatalf("upload held at the table lock: err = %v, want a timeout", err)
	}
	before := srv.accepted.Load()
	client.Timeout = 5 * time.Second
	next := make(chan error, 1)
	go func() {
		_, err := client.Upload(nil, deltas[2], nil)
		next <- err
	}()
	waitFor(t, "the fresh connection to be accepted", func() bool { return srv.accepted.Load() > before })
	srv.mu.Unlock()
	held = false

	if err := <-next; err != nil {
		t.Fatalf("the next upload, on a fresh connection: %v", err)
	}
	if n := dialer.dials(); n != 2 {
		t.Fatalf("%d dials, want 2", n)
	}
	// The held upload's handler ends once it has been stored or dropped,
	// leaving the fresh connection open.
	waitFor(t, "the held upload's handler to end", func() bool {
		srv.loop.mu.Lock()
		defer srv.loop.mu.Unlock()
		return len(srv.loop.conns) == 1
	})
	if !sameModel(t, srv, deltas[2].Model) {
		t.Fatal("the held upload replaced the site's next one")
	}
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
