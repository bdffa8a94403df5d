package transport

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

// wireTap hashes everything the connections it dials put on the wire, one
// digest per direction.
type wireTap struct {
	mu       sync.Mutex
	up, down hash.Hash
}

func newWireTap() *wireTap { return &wireTap{up: sha256.New(), down: sha256.New()} }

func (w *wireTap) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &tappedConn{Conn: conn, tap: w}, nil
}

func (w *wireTap) sums() (up, down string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return hex.EncodeToString(w.up.Sum(nil)), hex.EncodeToString(w.down.Sum(nil))
}

type tappedConn struct {
	net.Conn
	tap *wireTap
}

func (c *tappedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tap.mu.Lock()
	c.tap.up.Write(p[:n])
	c.tap.mu.Unlock()
	return n, err
}

func (c *tappedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tap.mu.Lock()
	c.tap.down.Write(p[:n])
	c.tap.mu.Unlock()
	return n, err
}

// TestWireIdentity pins the bytes current-version peers exchange, in both
// directions, for every upload path the transport has. The digests were
// recorded at commit bf9a449, before the downgrade ladders and the legacy
// frame were deleted: whatever is simplified behind these entry points, a
// current-version site and server must keep putting exactly these bytes on
// the wire.
func TestWireIdentity(t *testing.T) {
	a := data.DatasetA(2000, 1)
	b := data.DatasetB(2)
	cfgA := dbdc.Config{Local: a.Params}
	cfgB := dbdc.Config{Local: b.Params}
	phases := &SitePhases{Workers: 3, Cluster: 12345 * time.Microsecond, Condense: 678 * time.Microsecond}
	const timeout = 10 * time.Second

	// round serves one single-site round and runs send against it.
	round := func(t *testing.T, cfg dbdc.Config, capBytes int64, send func(c *Client) error) (string, string) {
		t.Helper()
		srv, err := NewServer("127.0.0.1:0", 1, cfg, timeout)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.SetMaxUploadBytes(capBytes)
		done := runRound(srv, RoundOptions{})
		tap := newWireTap()
		if err := send(&Client{Addr: srv.Addr(), Timeout: timeout, Dial: tap.dial}); err != nil {
			t.Fatal(err)
		}
		if r := <-done; r.err != nil {
			t.Fatal(r.err)
		}
		return tap.sums()
	}
	budgeted := func(t *testing.T) *dbdc.LocalOutcome {
		t.Helper()
		cfg := cfgA
		cfg.RepBudget = 8
		outcome, err := dbdc.LocalStep("site-a", a.Points, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return outcome
	}

	cases := []struct {
		name     string
		run      func(t *testing.T) (up, down string)
		up, down string
	}{
		{
			name: "timed upload with phases",
			run: func(t *testing.T) (string, string) {
				outcome, err := dbdc.LocalStep("site-a", a.Points, cfgA)
				if err != nil {
					t.Fatal(err)
				}
				return round(t, cfgA, 0, func(c *Client) error {
					_, _, err := c.SendModelTimed(outcome.Model, phases)
					return err
				})
			},
			up:   "abd9ee881e5d11d3b84d00d108f1968c2bc226f8d27b28968b908dbd141cab40",
			down: "7b116dbfe666190f0a105ae5c1d634f6abb6d982ed65a564992e0b9d0e956b76",
		},
		{
			name: "negotiated budgeted upload, no cap",
			run: func(t *testing.T) (string, string) {
				outcome := budgeted(t)
				return round(t, cfgA, 0, func(c *Client) error {
					_, _, neg, err := c.SendModelBudgeted(outcome, phases)
					if err == nil && (!neg.Acked || neg.Budget != 8) {
						t.Errorf("negotiation: %+v", neg)
					}
					return err
				})
			},
			up:   "34f57f53efea8b24edeef0b4a2f59bf6d44e78f0e78f0385ec118cb737040d85",
			down: "12cbc40b7fb69c71a6dbd75b9c62283c05a765674cbf5e37bb94799b15ef2471",
		},
		{
			name: "negotiated budgeted upload, cap-driven shrink",
			run: func(t *testing.T) (string, string) {
				outcome := budgeted(t)
				capBytes := int64(frameHeaderSize+outcome.Model.EncodedSize()) / 2
				return round(t, cfgA, capBytes, func(c *Client) error {
					_, _, neg, err := c.SendModelBudgeted(outcome, phases)
					if err == nil && (neg.MaxUploadBytes != capBytes || neg.Budget >= 8) {
						t.Errorf("negotiation: %+v", neg)
					}
					return err
				})
			},
			up:   "4df7a160218af618b19efd4000a6b15ae3874789fe761aa56348e68fe71438a9",
			down: "802ffda15d6780dfbbe20463a741fff7ca65590c29d6a5811f91175f4d93b909",
		},
		{
			// What internal/aggtree's forward puts on the wire: a condensed
			// regional model with the 0x07 provenance section appended.
			name: "aggregator forward with provenance section",
			run: func(t *testing.T) (string, string) {
				half := len(b.Points) / 2
				var models []*model.LocalModel
				for i, pts := range [][]geom.Point{b.Points[:half], b.Points[half:]} {
					outcome, err := dbdc.LocalStep([]string{"site-b1", "site-b2"}[i], pts, cfgB)
					if err != nil {
						t.Fatal(err)
					}
					models = append(models, outcome.Model)
				}
				regional, err := dbdc.GlobalStep(models, cfgB)
				if err != nil {
					t.Fatal(err)
				}
				outcome, err := dbdc.CondenseGlobal("agg-b", regional, cfgB)
				if err != nil {
					t.Fatal(err)
				}
				outcome.SetNumObjects(len(b.Points))
				agg := AggLevel{
					Level: 1, SitesExpected: 3, SitesOK: 2, SitesFailed: 1,
					RegionalClusters: regional.NumClusters, Objects: len(b.Points),
					RoundDuration: 40 * time.Millisecond, GlobalStepDuration: 3 * time.Millisecond,
					CondenseDuration: 200 * time.Microsecond,
					Sources: []AggSource{
						{SiteID: "site-b1", Reps: len(models[0].Reps)},
						{SiteID: "site-b2", Reps: len(models[1].Reps)},
					},
				}
				return round(t, cfgB, 0, func(c *Client) error {
					c.AppendSections = func(dst []byte) []byte { return AppendAggLevelSection(dst, agg) }
					_, _, err := c.SendModelTimed(outcome.Model, phases)
					return err
				})
			},
			up:   "18d077be9b7a8cbe4cbbeca098e90767450becd7b813435daa982905f2426da1",
			down: "affca25f19c2c3c629a7cba07ca2c47ddc40c795192d83befa037d0548a3915a",
		},
		{
			name: "snapshot delta, then incremental delta with stream stats",
			run: func(t *testing.T) (string, string) {
				srv, err := NewUpdateServer("127.0.0.1:0", cfgB, timeout)
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				go srv.Serve(2)
				tap := newWireTap()
				client := &StreamClient{Addr: srv.Addr(), Timeout: timeout, Dial: tap.dial}
				tracker := model.NewDeltaTracker()
				matcher := model.NewClusterMatcher()
				for i, n := range []int{len(b.Points) * 3 / 4, len(b.Points)} {
					outcome, err := dbdc.LocalStep("stream-b", b.Points[:n], cfgB)
					if err != nil {
						t.Fatal(err)
					}
					matcher.RelabelLocal(outcome.Model)
					delta := deltaOf(tracker, outcome.Model)
					if delta.Snapshot() != (i == 0) {
						t.Fatalf("upload %d: snapshot = %v", i, delta.Snapshot())
					}
					stats := &StreamStats{Window: n, Turns: uint64(i), Change: 0.25 * float64(i+1)}
					res, err := client.Upload(outcome.Model, delta, stats)
					if err != nil {
						t.Fatal(err)
					}
					if res.Mode != ModeDelta || res.Resync || res.Seq != uint64(i+1) {
						t.Fatalf("upload %d: %+v", i, res)
					}
				}
				return tap.sums()
			},
			up:   "cb9b0b76e571e33473ca6157f787e4ea2cc7f69ae9289867cea476d2e99ff111",
			down: "b43e953e3d7ec18483e4e555660f4bb4d9eb1439a5e2aa88e599094c9c3dd68a",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			up, down := tc.run(t)
			if up != tc.up {
				t.Errorf("site→server bytes changed:\n got %s\nwant %s", up, tc.up)
			}
			if down != tc.down {
				t.Errorf("server→site bytes changed:\n got %s\nwant %s", down, tc.down)
			}
		})
	}
}
