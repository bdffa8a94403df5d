package transport

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/leakcheck"
	"github.com/dbdc-go/dbdc/internal/model"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestConnLoopContract pins the loop every server runs on: Serve(n) stops
// after n connections and waits for their handlers, a connection is closed
// when its handler returns, Close closes open connections and waits for
// their handlers, a second Close is a no-op and Serve after Close returns
// nil.
func TestConnLoopContract(t *testing.T) {
	loop, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var handled atomic.Int32
	served := make(chan error, 1)
	go func() {
		served <- loop.Serve(2, func(net.Conn) {
			time.Sleep(50 * time.Millisecond)
			handled.Add(1)
		})
	}()
	for range 2 {
		conn, err := net.Dial("tcp", loop.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// The handler returned without a word: the loop hung up.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("read on a handled connection: %v, want EOF", err)
		}
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve(2) returned %v", err)
		}
		if n := handled.Load(); n != 2 {
			t.Fatalf("Serve(2) returned with %d handlers done, want 2", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve(2) did not stop after two connections")
	}

	// A handler blocked on its connection: Close unblocks it and waits.
	reading := make(chan struct{})
	var readErr error
	go func() {
		served <- loop.Serve(0, func(conn net.Conn) {
			close(reading)
			_, readErr = conn.Read(make([]byte, 1))
		})
	}()
	conn, err := net.Dial("tcp", loop.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-reading
	if err := loop.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !errors.Is(readErr, net.ErrClosed) {
		t.Fatalf("handler read %v after Close returned, want net.ErrClosed", readErr)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after Close", err)
	}
	if err := loop.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := loop.Serve(0, func(net.Conn) { t.Error("handler ran after Close") }); err != nil {
		t.Fatalf("Serve after Close returned %v", err)
	}
}

var errAccept = errors.New("accept failed")

// failingAccept is an open listener whose Accept fails.
type failingAccept struct{ net.Listener }

func (failingAccept) Accept() (net.Conn, error) { return nil, errAccept }

// TestServeReturnsAcceptError: an accept failure on a listener that is
// still open ends every server's Serve — and the round server's running
// round — with that error instead of a clean nil.
func TestServeReturnsAcceptError(t *testing.T) {
	listen := func(t *testing.T) net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return failingAccept{ln}
	}
	cases := []struct {
		name  string
		serve func(t *testing.T) error
	}{
		{"loop", func(t *testing.T) error {
			return NewConnLoop(listen(t)).Serve(0, func(net.Conn) {})
		}},
		{"round server", func(t *testing.T) error {
			srv, err := NewServerListener(listen(t), 1, testCfg(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			_, _, err = srv.RunRoundOpts(RoundOptions{})
			return err
		}},
		{"update server", func(t *testing.T) error {
			srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			srv.loop.Close()
			srv.loop = NewConnLoop(listen(t))
			return srv.Serve(0)
		}},
		{"site query server", func(t *testing.T) error {
			srv, err := NewSiteQueryServer("127.0.0.1:0", nil, nil, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			srv.loop.Close()
			srv.loop = NewConnLoop(listen(t))
			return srv.Serve(0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- tc.serve(t) }()
			select {
			case err := <-done:
				if !errors.Is(err, errAccept) {
					t.Fatalf("got %v, want the accept error", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("an accept failure did not end Serve")
			}
		})
	}
}

// TestUploadDuringRoundReachesNextRound: a site that connects while a round
// runs its global step — here from inside SetOnGlobal of round 1 — is
// collected by round 2, with a single-attempt client. The round no longer
// owns the accept loop, so ending it cannot reset a connection it never
// took.
func TestUploadDuringRoundReachesNextRound(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 1, testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rng := rand.New(rand.NewSource(30))
	first := mustLocalModel(t, "site-1", blob(rng, 0, 0, 200))
	late := mustLocalModel(t, "site-2", blob(rng, 0, 0, 200))
	lateErr := make(chan error, 1)
	var once sync.Once
	srv.SetOnGlobal(func(*model.GlobalModel) {
		once.Do(func() {
			go func() {
				_, _, err := (&Client{Addr: srv.Addr(), Timeout: 5 * time.Second}).SendModel(late)
				lateErr <- err
			}()
			// Round 1 goes on once the late upload is on the wire.
			time.Sleep(100 * time.Millisecond)
		})
	})
	round1 := runRound(srv, RoundOptions{})
	if _, _, err := (&Client{Addr: srv.Addr(), Timeout: 5 * time.Second}).SendModel(first); err != nil {
		t.Fatalf("round 1 upload: %v", err)
	}
	if r := <-round1; r.err != nil {
		t.Fatalf("round 1: %v", r.err)
	}
	_, report, err := srv.RunRoundOpts(RoundOptions{AcceptTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("round 2: %v\n%s", err, report)
	}
	if report.OK != 1 || report.Sites[0].SiteID != "site-2" {
		t.Fatalf("round 2 did not collect the late upload:\n%s", report)
	}
	if err := <-lateErr; err != nil {
		t.Fatalf("upload sent during round 1: %v", err)
	}
}
