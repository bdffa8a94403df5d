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
// directions, for every upload path the transport has: whatever is
// simplified behind these entry points, a current-version site and server
// must keep putting exactly these bytes on the wire. The frame layout is the
// one recorded at commit bf9a449, before the downgrade ladders and the
// legacy frame were deleted; the digests were re-pinned once, when the
// sequential DBSCAN expansion was deleted, to the bytes a site then put on
// the wire at SiteWorkers 2 — the model every site now uploads, whatever its
// worker count (last sub-test). The streaming row's upward digest was
// re-pinned once more when a streaming upload stopped being a diff: each
// delta frame is now LocalStep's LocalModel frame verbatim behind a tag,
// a version and a sequence number, and the acks did not change.
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
			up:   "473dd787f2f59f06d344920044befdc7e4e358ece319a17d17cde496943a539c",
			down: "b7ea38d7fb810684290e2a71b1bed084f3a749844b23cc2030e3d71093ffcf9a",
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
			up:   "0283450c05fc6bc8b7c9728aa477ac3391abcd031a3546b4427e35c7bbae9866",
			down: "8883e405d3707dfc5603237e3baed13e022d0e8b35482efa0e1811ae58b90074",
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
			up:   "6d9143d9e41b259d90d9814cb32c345818d568d32dcef8d7bbb545cbf86fbfc1",
			down: "7045e1305ab83dcd04855b6b7b29f3484aea17ac4647b63a98f4e94538a09c75",
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
			up:   "b7d2d6389f9d9ecb43056811a0d91ebda71f739733cd2c3ef27e5be783f86565",
			down: "ef2b5277440f994c19799a8e967dcce8bf437db798ac47c0bedd4fec96ef358a",
		},
		{
			name: "two streaming uploads with stream stats",
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
				for i, n := range []int{len(b.Points) * 3 / 4, len(b.Points)} {
					outcome, err := dbdc.LocalStep("stream-b", b.Points[:n], cfgB)
					if err != nil {
						t.Fatal(err)
					}
					delta := deltaOf(tracker, outcome.Model)
					stats := &StreamStats{Window: n, Turns: uint64(i), Change: 0.25 * float64(i+1)}
					res, err := client.Upload(outcome.Model, delta, stats)
					if err != nil {
						t.Fatal(err)
					}
					if res.Mode != ModeDelta || res.Seq != uint64(i+1) {
						t.Fatalf("upload %d: %+v", i, res)
					}
				}
				return tap.sums()
			},
			up:   "10d30d25b4f32b8f5b01f3ff427af925061c03d8520f15f030f4c6867fa6d22c",
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
	// The first case again at 1, 2 and 4 intra-site workers (the phases
	// section is the fixed one above, so only the model could differ).
	t.Run("upload independent of SiteWorkers", func(t *testing.T) {
		for _, workers := range []int{1, 2, 4} {
			cfg := cfgA
			cfg.SiteWorkers = workers
			outcome, err := dbdc.LocalStep("site-a", a.Points, cfg)
			if err != nil {
				t.Fatal(err)
			}
			up, down := round(t, cfg, 0, func(c *Client) error {
				_, _, err := c.SendModelTimed(outcome.Model, phases)
				return err
			})
			if up != cases[0].up || down != cases[0].down {
				t.Errorf("SiteWorkers %d: bytes differ from the one-worker site's\n up %s\ndown %s", workers, up, down)
			}
		}
	})
}
