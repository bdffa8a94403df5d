package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// dropFirst is a dialer whose first drop connections reach a peer that reads
// one frame and closes without replying — a server restart or a dropped link
// as the site sees it — while later connections reach the address the client
// asked for. It records the type of the first frame written on every
// connection.
type dropFirst struct {
	drop   int
	closer net.Listener

	mu    sync.Mutex
	types []byte
}

func newDropFirst(t *testing.T, drop int) *dropFirst {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				ReadFrame(conn)
				conn.Close()
			}()
		}
	}()
	return &dropFirst{drop: drop, closer: ln}
}

func (d *dropFirst) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	d.mu.Lock()
	idx := len(d.types)
	d.types = append(d.types, 0)
	d.mu.Unlock()
	if idx < d.drop {
		addr = d.closer.Addr().String()
	}
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &firstFrameConn{Conn: conn, d: d, idx: idx}, nil
}

func (d *dropFirst) firstTypes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.types...)
}

// firstFrameConn records the type byte of the first frame header written.
type firstFrameConn struct {
	net.Conn
	d    *dropFirst
	idx  int
	seen bool
}

func (c *firstFrameConn) Write(p []byte) (int, error) {
	if !c.seen && len(p) >= 2 {
		c.seen = true
		c.d.mu.Lock()
		c.d.types[c.idx] = p[1]
		c.d.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// TestDroppedConnectionIsAFault: a server that closes without replying is a
// transient fault like any other. The client retries under its policy —
// sleeping the backoff, charging the attempt — and every retry sends exactly
// what the first attempt sent: same frame type, same sections. Nothing about
// a failed attempt changes the protocol of the next.
func TestDroppedConnectionIsAFault(t *testing.T) {
	const maxAttempts = 3
	agg := AggLevel{Level: 1, SitesExpected: 2, SitesOK: 2}
	phases := &SitePhases{Workers: 2, Cluster: time.Millisecond}
	kinds := []struct {
		name      string
		budget    int
		firstType byte
	}{
		{"timed", 0, MsgLocalModelTimed},
		{"budgeted", 2, MsgHello},
	}
	for _, kind := range kinds {
		for drops := 1; drops <= maxAttempts; drops++ {
			kind, drops := kind, drops
			name := kind.name + "/recovers"
			if drops == maxAttempts {
				name = kind.name + "/exhausts"
			}
			t.Run(name+"-after-"+string(rune('0'+drops)), func(t *testing.T) {
				t.Parallel()
				outcome, _ := budgetedOutcome(t, "site-1", 7, kind.budget)
				srv, err := NewServer("127.0.0.1:0", 1, testCfg(), 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				var done <-chan struct {
					global *model.GlobalModel
					report *RoundReport
					err    error
				}
				if drops < maxAttempts {
					done = runRound(srv, RoundOptions{})
				}
				dialer := newDropFirst(t, drops)
				var retried []time.Duration
				c := &Client{
					Addr:    srv.Addr(),
					Timeout: 5 * time.Second,
					Retry:   fastRetry(maxAttempts),
					Dial:    dialer.dial,
					OnRetry: func(_ int, _ error, delay time.Duration) { retried = append(retried, delay) },
					AppendSections: func(dst []byte) []byte {
						return AppendAggLevelSection(dst, agg)
					},
				}
				_, stats, neg, err := c.SendModelBudgeted(outcome, phases)

				types := dialer.firstTypes()
				for i, typ := range types {
					if typ != kind.firstType {
						t.Errorf("attempt %d opened with frame type 0x%02x, want 0x%02x on every attempt", i+1, typ, kind.firstType)
					}
				}
				if drops == maxAttempts {
					if err == nil {
						t.Fatal("upload succeeded against a server that never replies")
					}
					if !Retryable(err) {
						t.Errorf("close without reply classified permanent: %v", err)
					}
					if stats.Attempts != maxAttempts || len(types) != maxAttempts {
						t.Fatalf("attempts = %d, dials = %d, want exactly %d", stats.Attempts, len(types), maxAttempts)
					}
					if len(retried) != maxAttempts-1 {
						t.Errorf("slept %d backoffs, want %d", len(retried), maxAttempts-1)
					}
					return
				}
				if err != nil {
					t.Fatalf("upload failed after %d dropped connections: %v", drops, err)
				}
				if stats.Attempts != drops+1 || len(types) != drops+1 {
					t.Fatalf("attempts = %d, dials = %d, want %d", stats.Attempts, len(types), drops+1)
				}
				var slept time.Duration
				for i, d := range retried {
					if d <= 0 || stats.Log[i+1].Backoff != d {
						t.Errorf("retry %d: backoff %s, attempt log says %s", i+1, d, stats.Log[i+1].Backoff)
					}
					slept += d
				}
				if len(retried) != drops {
					t.Errorf("slept %d backoffs, want %d", len(retried), drops)
				}
				r := <-done
				if r.err != nil {
					t.Fatal(r.err)
				}
				site := r.report.Sites[0]
				if site.Phases == nil || site.Phases.Attempt != drops+1 || site.Phases.Backoff != slept {
					t.Errorf("phases section of the successful attempt: %+v (want attempt %d, backoff %s)", site.Phases, drops+1, slept)
				}
				if site.Agg == nil || site.Agg.Level != 1 {
					t.Errorf("AppendSections section lost on the retry: %+v", site.Agg)
				}
				if kind.budget > 0 {
					if !site.Negotiated || site.Budget == nil || site.Budget.RepBudget != kind.budget || !neg.Acked {
						t.Errorf("budgeted retry lost its handshake or budget section: site %+v neg %+v", site, neg)
					}
				} else if site.Negotiated || site.Budget != nil {
					t.Errorf("unbudgeted retry grew a handshake: %+v", site)
				}
			})
		}
	}
}

// TestStreamClientDeltaAfterEOF: an EOF on a delta upload is returned to the
// caller and changes nothing about the next upload, which is a delta again.
func TestStreamClientDeltaAfterEOF(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(0)

	dialer := newDropFirst(t, 1)
	client := &StreamClient{Addr: srv.Addr(), Timeout: 5 * time.Second, Dial: dialer.dial}
	tracker := model.NewDeltaTracker()
	m := localModelOf(t, "st-eof", blob(rng, 0, 0, 200))
	pending := tracker.Delta(m)
	if _, err := client.Upload(m, pending.Delta, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("upload into a closed connection: err = %v, want EOF", err)
	}
	// The site's next change round uploads the same pending delta.
	res, err := client.Upload(m, pending.Delta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeDelta || res.Resync || res.Seq != 1 {
		t.Fatalf("upload after the fault: %+v", res)
	}
	if types := dialer.firstTypes(); len(types) != 2 || types[0] != MsgModelDelta || types[1] != MsgModelDelta {
		t.Fatalf("frame types on the wire: %#v, want two MsgModelDelta", types)
	}
	if g := srv.Global(); g == nil || g.NumClusters != 1 {
		t.Fatalf("global after the recovered upload: %+v", g)
	}
}

// rawExchange writes raw bytes to addr and returns the one frame the server
// answers with.
func rawExchange(t *testing.T, addr string, raw []byte) (byte, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	msgType, reply, _, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("no answer from the server: %v", err)
	}
	return msgType, string(reply)
}

// bothServers runs fn against a round server (one expected site, short
// accept window) and an update server, each with the given upload cap.
// report waits for the round server's report; it is nil for the update
// server.
func bothServers(t *testing.T, capBytes int64, fn func(t *testing.T, addr string, report func() *RoundReport)) {
	t.Run("round server", func(t *testing.T) {
		srv, err := NewServer("127.0.0.1:0", 1, testCfg(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.SetMaxUploadBytes(capBytes)
		done := runRound(srv, RoundOptions{AcceptTimeout: time.Second})
		fn(t, srv.Addr(), func() *RoundReport { return (<-done).report })
	})
	t.Run("update server", func(t *testing.T) {
		srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.SetMaxUploadBytes(capBytes)
		go srv.Serve(0)
		fn(t, srv.Addr(), nil)
	})
}

// TestRetiredFrameTypeRefused: frame type 0x01, the retired bare-model
// upload, is an unknown type like any other — both servers answer it with a
// MsgError naming the type (which a Client treats as permanent, see
// TestRetryGivesUpOnPermanentError), and the round server records the
// failure.
func TestRetiredFrameTypeRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	payload, err := localModelOf(t, "old-site", blob(rng, 0, 0, 200)).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bothServers(t, 0, func(t *testing.T, addr string, report func() *RoundReport) {
		var raw strings.Builder
		if _, err := WriteFrame(&raw, 0x01, payload); err != nil {
			t.Fatal(err)
		}
		msgType, reply := rawExchange(t, addr, []byte(raw.String()))
		if msgType != MsgError || !strings.Contains(reply, "0x01") {
			t.Fatalf("answer to a 0x01 frame: type 0x%02x %q, want MsgError naming the type", msgType, reply)
		}
		if report == nil {
			return
		}
		r := report()
		if r.OK != 0 || len(r.Sites) != 1 || !strings.Contains(r.Sites[0].Reason, "0x01") {
			t.Fatalf("round report does not record the refused frame:\n%s", r)
		}
		if r.Sites[0].SiteID != "old-site" {
			t.Errorf("refused upload not attributed to its site: %+v", r.Sites[0])
		}
	})
}

// TestUploadCapBindsEveryConnection: the cap holds whether or not the site
// handshakes. An over-cap upload is refused with a permanent, explanatory
// error after a single attempt, and the refusal needs nothing but the frame
// header — a peer that only announces an oversize frame is answered without
// the server waiting for (or allocating) the body.
func TestUploadCapBindsEveryConnection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := localModelOf(t, "big-site", append(blob(rng, 0, 0, 200), blob(rng, 4, 0, 200)...))
	capBytes := int64(frameHeaderSize+m.EncodedSize()) - 1
	namesCap := fmt.Sprintf("limit is %d", capBytes)

	t.Run("unbudgeted upload over the cap", func(t *testing.T) {
		bothServers(t, capBytes, func(t *testing.T, addr string, report func() *RoundReport) {
			c := &Client{Addr: addr, Timeout: 3 * time.Second, Retry: fastRetry(3)}
			_, stats, err := c.SendModelTimed(m, &SitePhases{Workers: 1})
			if err == nil {
				t.Fatal("over-cap upload accepted")
			}
			if Retryable(err) || stats.Attempts != 1 {
				t.Errorf("over-cap refusal burned %d attempt(s), retryable=%v: %v", stats.Attempts, Retryable(err), err)
			}
			if !strings.Contains(err.Error(), namesCap) {
				t.Errorf("refusal does not name the cap of %d: %v", capBytes, err)
			}
			if report != nil {
				if r := report(); r.OK != 0 || r.Failed != 1 || !strings.Contains(r.Sites[0].Reason, "exceeds maximum size") {
					t.Errorf("round report:\n%s", r)
				}
			}
		})
	})

	t.Run("delta over the cap", func(t *testing.T) {
		srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.SetMaxUploadBytes(capBytes)
		go srv.Serve(0)
		client := &StreamClient{Addr: srv.Addr(), Timeout: 3 * time.Second}
		_, err = client.Upload(m, model.NewDeltaTracker().Delta(m).Delta, nil)
		if err == nil || !strings.Contains(err.Error(), namesCap) {
			t.Fatalf("over-cap snapshot delta: %v", err)
		}
	})

	t.Run("header only", func(t *testing.T) {
		bothServers(t, capBytes, func(t *testing.T, addr string, report func() *RoundReport) {
			header := make([]byte, frameHeaderSize)
			header[0] = FrameVersion
			header[1] = MsgLocalModelTimed
			binary.LittleEndian.PutUint32(header[2:6], uint32(capBytes+1-frameHeaderSize))
			start := time.Now()
			msgType, reply := rawExchange(t, addr, header)
			if msgType != MsgError || !strings.Contains(reply, namesCap) {
				t.Fatalf("answer to an oversize header: type 0x%02x %q", msgType, reply)
			}
			if waited := time.Since(start); waited > time.Second {
				t.Errorf("refusal took %s: the server waited for the body", waited)
			}
		})
	})

	t.Run("at the cap", func(t *testing.T) {
		bothServers(t, capBytes+1, func(t *testing.T, addr string, report func() *RoundReport) {
			if _, _, _, err := Exchange(addr, m, 3*time.Second); err != nil {
				t.Fatalf("upload of exactly the cap refused: %v", err)
			}
		})
	})
}

// TestBudgetedSiteAgainstUpdateServer: the update server reads uploads
// through the same readUpload as the round server, so a budgeted site's
// handshake works against it — with a cap, the site shrinks to fit and the
// stored model honours the shrunk budget.
func TestBudgetedSiteAgainstUpdateServer(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts := append(append(blob(rng, 0, 0, 150), blob(rng, 4, 0, 150)...), blob(rng, 2, 3, 150)...)
	cfg := testCfg()
	cfg.RepBudget = 4
	outcome, err := dbdc.LocalStep("site-1", pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The frame the site would send at its configured budget: model, phases
	// section, budget section.
	fullFrame := int64(frameHeaderSize + outcome.Model.EncodedSize() +
		2*sectionHeaderSize + sitePhasesBodyLen + siteBudgetBodyLen)

	for _, tc := range []struct {
		name     string
		capBytes int64
	}{
		{"no cap", 0},
		{"cap forces a shrink", fullFrame - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			srv.SetMaxUploadBytes(tc.capBytes)
			go srv.Serve(0)

			c := &Client{Addr: srv.Addr(), Timeout: 5 * time.Second, Retry: fastRetry(3)}
			rep, err := RunSiteClient(c, "site-1", pts, cfg)
			if err != nil {
				t.Fatalf("budgeted site against the update server: %v", err)
			}
			neg := rep.Negotiation
			if !neg.Acked || neg.MaxUploadBytes != tc.capBytes || rep.Attempts != 1 {
				t.Fatalf("negotiation: %+v after %d attempt(s)", neg, rep.Attempts)
			}
			if shrunk := neg.Budget < cfg.RepBudget; shrunk != (tc.capBytes > 0) || neg.Budget < 1 {
				t.Fatalf("shipped budget %d under cap %d (configured %d)", neg.Budget, tc.capBytes, cfg.RepBudget)
			}
			if rep.Global == nil || rep.Global.NumClusters < 1 || len(rep.Labels) != len(pts) {
				t.Fatalf("site report: %+v", rep)
			}
			srv.mu.Lock()
			stored := srv.models["site-1"]
			srv.mu.Unlock()
			if stored == nil {
				t.Fatal("update server stored no model for the site")
			}
			perCluster := make(map[int]int)
			for _, r := range stored.Reps {
				perCluster[int(r.LocalCluster)]++
			}
			for id, n := range perCluster {
				if n > neg.Budget {
					t.Errorf("stored model keeps %d representatives for local cluster %d, shipped budget is %d", n, id, neg.Budget)
				}
			}
			if tc.capBytes > 0 && int64(frameHeaderSize+stored.EncodedSize()) > tc.capBytes {
				t.Errorf("stored model of %dB does not fit the %dB cap", stored.EncodedSize(), tc.capBytes)
			}
		})
	}
}
