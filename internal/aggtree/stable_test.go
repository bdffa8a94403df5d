package aggtree

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/serve"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// TestTreeStableIDs runs two rounds of a tree — a root transport.Server
// feeding a registry, one aggregator, two sites — over drifting data: in
// round 2 a new cluster appears on site-1 ahead of the one it had, which
// renumbers every global step of the tree. Each round, the model a site
// relabels with must be the model the root publishes, and across the rounds
// its ids must follow model.ClusterMatcher: matching the second version
// against the first changes no id.
func TestTreeStableIDs(t *testing.T) {
	cfg := dbdc.Config{Local: dbscan.Params{Eps: 0.5, MinPts: 5}}
	const timeout = 10 * time.Second
	root, err := transport.NewServer("127.0.0.1:0", 1, cfg, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	reg := serve.NewRegistry("")
	root.SetOnGlobal(reg.PublishFunc(func(err error) { t.Errorf("publish: %v", err) }))
	agg, err := New("127.0.0.1:0", Config{ID: "agg-a", Parent: root.Addr(), Expect: 2, Cluster: cfg, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	rng := rand.New(rand.NewSource(7))
	blob := func(center geom.Point) []geom.Point {
		st := geom.NewStore(2, 0)
		data.AppendBlob(st, rng, center, 0.3, 150)
		return st.Views()
	}
	a := blob(geom.Point{0, 0})
	b := blob(geom.Point{100, 0})
	c := blob(geom.Point{50, 50})
	rounds := []map[string][]geom.Point{
		{"site-1": a, "site-2": b},
		{"site-1": append(append([]geom.Point{}, c...), a...), "site-2": b},
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
		var wg sync.WaitGroup
		wg.Add(2 + len(sites))
		go func() {
			defer wg.Done()
			if _, report, err := root.RunRoundOpts(transport.RoundOptions{}); err != nil {
				t.Errorf("root round %d: %v\n%s", i+1, err, report)
			}
		}()
		go func() {
			defer wg.Done()
			if _, report, err := agg.RunRound(); err != nil {
				t.Errorf("aggregator round %d: %v\n%s", i+1, err, report)
			}
		}()
		relabeled := make(chan *model.GlobalModel, len(sites))
		for id, pts := range sites {
			go func(id string, pts []geom.Point) {
				defer wg.Done()
				rep, err := transport.RunSiteClient(&transport.Client{Addr: agg.Addr(), Timeout: timeout}, id, pts, cfg)
				if err != nil {
					t.Errorf("round %d, %s: %v", i+1, id, err)
					return
				}
				relabeled <- rep.Global
			}(id, pts)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		published := marshal(reg.Current().Global)
		for range sites {
			if !bytes.Equal(marshal(<-relabeled), published) {
				t.Fatalf("round %d: a site relabels with ids other than the root published", i+1)
			}
		}
		var replay model.GlobalModel
		if err := replay.UnmarshalBinary(published); err != nil {
			t.Fatal(err)
		}
		matcher.RelabelGlobal(&replay)
		if !bytes.Equal(marshal(&replay), published) {
			t.Fatalf("round %d: the published ids do not follow ClusterMatcher", i+1)
		}
	}
}
