package serve

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/leakcheck"
	"github.com/dbdc-go/dbdc/internal/transport"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestCloseWithSilentPeer runs every server of the module — update, site
// query, classification and round — with one peer that connected and never
// sends: Close returns, and Serve or the running round ends, within 1 s
// although the servers' timeout is 5 s. A round cut short this way fails
// with an error wrapping net.ErrClosed.
func TestCloseWithSilentPeer(t *testing.T) {
	const timeout = 5 * time.Second
	cfg := dbdc.Config{Local: dbscan.Params{Eps: 1, MinPts: 4}}
	type server struct {
		addr  string
		serve func() error
		close func() error
	}
	cases := []struct {
		name  string
		start func(t *testing.T) server
	}{
		{"update server", func(t *testing.T) server {
			srv, err := transport.NewUpdateServer("127.0.0.1:0", cfg, timeout)
			if err != nil {
				t.Fatal(err)
			}
			return server{srv.Addr(), func() error { return srv.Serve(0) }, srv.Close}
		}},
		{"site query server", func(t *testing.T) server {
			srv, err := transport.NewSiteQueryServer("127.0.0.1:0", nil, nil, timeout)
			if err != nil {
				t.Fatal(err)
			}
			return server{srv.Addr(), func() error { return srv.Serve(0) }, srv.Close}
		}},
		{"classification server", func(t *testing.T) server {
			srv, err := NewServer("127.0.0.1:0", ServerConfig{Registry: NewRegistry(""), Timeout: timeout})
			if err != nil {
				t.Fatal(err)
			}
			return server{srv.Addr(), srv.Serve, srv.Close}
		}},
		{"round server", func(t *testing.T) server {
			srv, err := transport.NewServer("127.0.0.1:0", 1, cfg, timeout)
			if err != nil {
				t.Fatal(err)
			}
			return server{srv.Addr(), func() error {
				_, _, err := srv.RunRoundOpts(transport.RoundOptions{})
				if !errors.Is(err, net.ErrClosed) {
					return fmt.Errorf("round cut short by Close ended with %v, want net.ErrClosed", err)
				}
				return nil
			}, srv.Close}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			srv := tc.start(t)
			served := make(chan error, 1)
			go func() { served <- srv.serve() }()
			peer, err := net.Dial("tcp", srv.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			// Let the server take the peer and wait for its first frame.
			time.Sleep(100 * time.Millisecond)
			closed := make(chan error, 1)
			go func() { closed <- srv.close() }()
			bound := time.After(time.Second)
			for _, step := range []struct {
				name string
				done chan error
			}{{"Close", closed}, {"Serve", served}} {
				select {
				case err := <-step.done:
					if err != nil {
						t.Fatalf("%s: %v", step.name, err)
					}
				case <-bound:
					t.Fatalf("%s still running 1s after Close with a silent peer", step.name)
				}
			}
		})
	}
}

var errAccept = errors.New("accept failed")

// failingAccept is an open listener whose Accept fails.
type failingAccept struct{ net.Listener }

func (failingAccept) Accept() (net.Conn, error) { return nil, errAccept }

// TestServeReturnsAcceptError: an accept failure on an open listener ends
// Serve with that error, not with the nil of a clean shutdown.
func TestServeReturnsAcceptError(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Registry: NewRegistry("")})
	if err != nil {
		t.Fatal(err)
	}
	srv.loop.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv.loop = transport.NewConnLoop(failingAccept{ln})
	if err := srv.Serve(); !errors.Is(err, errAccept) {
		t.Fatalf("Serve returned %v, want the accept error", err)
	}
}
