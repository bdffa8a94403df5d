package transport

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
)

func TestQueryServerValidation(t *testing.T) {
	if _, err := NewSiteQueryServer("127.0.0.1:0", []geom.Point{{0, 0}}, cluster.Labeling{0, 1}, 0); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// The end-to-end flow of Section 7: run a DBDC round, stand up query
// servers on the relabelled sites, and ask every site for the members of
// one global cluster.
func TestClusterQueryAfterRound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shared := blob(rng, 0, 0, 300)
	sites := []dbdc.Site{
		{ID: "a", Points: shared[:150]},
		{ID: "b", Points: append(shared[150:300:300], blob(rng, 9, 9, 100)...)},
	}
	res, err := dbdc.Run(sites, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	sharedID := res.Sites["a"].Labels[0]
	if sharedID < 0 {
		t.Fatal("setup: shared cluster lost")
	}
	var servers []*SiteQueryServer
	for _, s := range sites {
		srv, err := NewSiteQueryServer("127.0.0.1:0", s.Points, res.Sites[s.ID].Labels, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		go srv.Serve(0)
		servers = append(servers, srv)
	}
	total := 0
	for _, srv := range servers {
		members, err := QueryCluster(srv.Addr(), sharedID, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		total += len(members)
		for _, p := range members {
			// Every returned member must genuinely carry that label.
			found := false
			for s, site := range sites {
				for i, sp := range site.Points {
					if sp.Equal(p) && res.Sites[sites[s].ID].Labels[i] == sharedID {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("site returned non-member %v", p)
			}
		}
	}
	// All 300 shared-cluster points (plus possibly adopted noise) across
	// both sites.
	if total < 290 {
		t.Fatalf("cluster members across sites = %d, want ~300", total)
	}
	// A query for a cluster this data does not contain returns nothing.
	members, err := QueryCluster(servers[0].Addr(), 4711, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 0 {
		t.Fatalf("nonexistent cluster returned %d members", len(members))
	}
}

func TestQueryServerUpdate(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 1}}
	srv, err := NewSiteQueryServer("127.0.0.1:0", pts, cluster.Labeling{5, cluster.Noise}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(0)
	got, err := QueryCluster(srv.Addr(), 5, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Equal(pts[0]) {
		t.Fatalf("query = %v", got)
	}
	if err := srv.Update(pts, cluster.Labeling{cluster.Noise, 5}); err != nil {
		t.Fatal(err)
	}
	got, err = QueryCluster(srv.Addr(), 5, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Equal(pts[1]) {
		t.Fatalf("query after update = %v", got)
	}
	if err := srv.Update(pts, cluster.Labeling{0}); err == nil {
		t.Fatal("bad update accepted")
	}
}

func TestQueryServerRejectsWrongMessage(t *testing.T) {
	srv, err := NewSiteQueryServer("127.0.0.1:0", nil, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(1)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	WriteFrame(conn, MsgLocalModelTimed, []byte("nope"))
	msgType, _, _, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != MsgError {
		t.Fatalf("expected error reply, got 0x%02x", msgType)
	}
}

func TestPointCodecRoundTrip(t *testing.T) {
	pts := []geom.Point{{1.5, -2}, {0, 3}}
	got, err := DecodePoints(EncodePoints(pts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Equal(pts[0]) || !got[1].Equal(pts[1]) {
		t.Fatalf("round trip = %v", got)
	}
	if got, err := DecodePoints(EncodePoints(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty round trip = %v, %v", got, err)
	}
	if _, err := DecodePoints([]byte{1, 2}); err == nil {
		t.Fatal("truncated header accepted")
	}
	buf := EncodePoints(pts)
	if _, err := DecodePoints(buf[:len(buf)-3]); err == nil {
		t.Fatal("truncated body accepted")
	}
}
