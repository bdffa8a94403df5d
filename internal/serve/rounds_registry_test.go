package serve

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// TestRegistryFromRoundsStableIDs runs dbdc-server's round shape — a
// transport.Server whose SetOnGlobal feeds a Registry — for two rounds over
// drifting data: in round 2 a new cluster appears on site s1 ahead of the
// one it had, so GlobalStep numbers the clusters differently. The model each
// round publishes and the model it broadcasts to the sites must be the same
// model, carrying the ids model.ClusterMatcher assigns across the rounds.
func TestRegistryFromRoundsStableIDs(t *testing.T) {
	cfg := dbdc.Config{Local: dbscan.Params{Eps: 0.5, MinPts: 5}}
	srv, err := transport.NewServer("127.0.0.1:0", 2, cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := NewRegistry("")
	srv.SetOnGlobal(reg.PublishFunc(func(err error) { t.Errorf("publish: %v", err) }))

	rng := rand.New(rand.NewSource(5))
	blob := func(center geom.Point) []geom.Point {
		st := geom.NewStore(2, 0)
		data.AppendBlob(st, rng, center, 0.3, 150)
		return st.Views()
	}
	a := blob(geom.Point{0, 0})
	b := blob(geom.Point{100, 0})
	c := blob(geom.Point{50, 50})
	rounds := [][2][]geom.Point{
		{a, b},
		{append(append([]geom.Point{}, c...), a...), b},
	}
	marshal := func(g *model.GlobalModel) []byte {
		out, err := g.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	matcher := model.NewClusterMatcher()
	for i, sites := range rounds {
		models := make([]*model.LocalModel, len(sites))
		for j, pts := range sites {
			out, err := dbdc.LocalStep([]string{"s1", "s2"}[j], pts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			models[j] = out.Model
		}
		want, err := dbdc.GlobalStep(models, cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw := marshal(want)
		matcher.RelabelGlobal(want)
		if renumbered := !bytes.Equal(raw, marshal(want)); renumbered != (i == 1) {
			t.Fatalf("round %d: GlobalStep renumbered=%v; the data should renumber in round 2 only", i+1, renumbered)
		}

		done := make(chan error, 1)
		go func() {
			_, report, err := srv.RunRoundOpts(transport.RoundOptions{})
			if err == nil && report.OK != len(models) {
				t.Errorf("round %d:\n%s", i+1, report)
			}
			done <- err
		}()
		broadcast := make(chan *model.GlobalModel, len(models))
		for _, m := range models {
			go func(m *model.LocalModel) {
				g, _, err := (&transport.Client{Addr: srv.Addr(), Timeout: 10 * time.Second}).SendModel(m)
				if err != nil {
					t.Errorf("round %d, site %s: %v", i+1, m.SiteID, err)
				}
				broadcast <- g
			}(m)
		}
		if err := <-done; err != nil {
			t.Fatalf("round %d: %v", i+1, err)
		}
		snap := reg.Current()
		if snap == nil || snap.Version != uint64(i+1) {
			t.Fatalf("round %d: registry at %+v, want version %d", i+1, snap, i+1)
		}
		if !bytes.Equal(marshal(snap.Global), marshal(want)) {
			t.Fatalf("round %d: the published ids do not follow ClusterMatcher", i+1)
		}
		for range models {
			if g := <-broadcast; g == nil || !bytes.Equal(marshal(g), marshal(want)) {
				t.Fatalf("round %d: a site relabels with ids other than the published ones", i+1)
			}
		}
	}
}
