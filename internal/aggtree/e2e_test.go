package aggtree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/leakcheck"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/serve"
	"github.com/dbdc-go/dbdc/internal/transport"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestTreeE2E drives a full 2-level aggregation tree over loopback TCP:
//
//	root (expect 3, quorum 2) ← agg-a (expect 3, quorum 2) ← site-a0, site-a1, [site-a2 dead]
//	                          ← agg-b (expect 2)           ← site-b0, site-b1
//	                          ← [agg-c dead in round 1]
//
// Round 1 must complete despite the dead site AND the dead leaf aggregator,
// publish the root model into the serving registry, and relabel every live
// site exactly like the flat in-process run over the same site partition
// (the documented budget-off tolerance: identical partitions, cluster ids
// renamed). Round 2 revives agg-c with a fifth site and must hot-swap the
// registry to version 2 with all three aggregators reporting provenance.
func TestTreeE2E(t *testing.T) {
	ds := data.DatasetA(1500, 11)
	rng := rand.New(rand.NewSource(11))
	part, err := data.PartitionRandom(len(ds.Points), 5, rng)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	sitePts := part.Extract(ds.Points)
	cfg := dbdc.Config{Local: ds.Params, EpsGlobal: 2 * ds.Params.Eps}
	const timeout = 10 * time.Second

	// site-a2 is the dead site: its points simply never show up.
	siteIDs := map[string][]geom.Point{
		"site-a0": sitePts[0],
		"site-a1": sitePts[1],
		"site-b0": sitePts[2],
		"site-b1": sitePts[3],
		"site-c0": sitePts[4],
	}

	root, err := transport.NewServer("127.0.0.1:0", 3, cfg, timeout)
	if err != nil {
		t.Fatalf("root server: %v", err)
	}
	defer root.Close()
	reg := serve.NewRegistry("")
	root.SetOnGlobal(reg.PublishFunc(func(err error) { t.Errorf("publish: %v", err) }))

	newAgg := func(id string, expect, quorum int, sites []string) *Aggregator {
		agg, err := New("127.0.0.1:0", Config{
			ID:            id,
			Parent:        root.Addr(),
			Expect:        expect,
			Quorum:        quorum,
			Cluster:       cfg,
			Timeout:       timeout,
			AcceptTimeout: 1200 * time.Millisecond,
			ExpectedSites: sites,
			Retry:         transport.RetryPolicy{MaxAttempts: 2},
		})
		if err != nil {
			t.Fatalf("aggregator %s: %v", id, err)
		}
		return agg
	}
	aggA := newAgg("agg-a", 3, 2, []string{"site-a0", "site-a1", "site-a2"})
	defer aggA.Close()
	aggB := newAgg("agg-b", 2, 2, []string{"site-b0", "site-b1"})
	defer aggB.Close()

	type aggResult struct {
		id     string
		global *model.GlobalModel
		report *transport.RoundReport
		err    error
	}
	type siteResult struct {
		id     string
		report *transport.SiteReport
		err    error
	}

	runRound := func(aggs map[string]*Aggregator, sites map[string]string, rootOpts transport.RoundOptions) (*model.GlobalModel, *transport.RoundReport, map[string]aggResult, map[string]siteResult) {
		t.Helper()
		var (
			wg        sync.WaitGroup
			mu        sync.Mutex
			aggRes    = make(map[string]aggResult)
			siteRes   = make(map[string]siteResult)
			rootG     *model.GlobalModel
			rootRep   *transport.RoundReport
			rootErr   error
			rootReady = make(chan struct{})
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(rootReady)
			rootG, rootRep, rootErr = root.RunRoundOpts(rootOpts)
		}()
		for id, agg := range aggs {
			wg.Add(1)
			go func(id string, agg *Aggregator) {
				defer wg.Done()
				g, rep, err := agg.RunRound()
				mu.Lock()
				aggRes[id] = aggResult{id: id, global: g, report: rep, err: err}
				mu.Unlock()
			}(id, agg)
		}
		for id, aggAddr := range sites {
			wg.Add(1)
			go func(id, addr string) {
				defer wg.Done()
				c := &transport.Client{Addr: addr, Timeout: timeout, Retry: transport.RetryPolicy{MaxAttempts: 3}}
				rep, err := transport.RunSiteClient(c, id, siteIDs[id], cfg)
				mu.Lock()
				siteRes[id] = siteResult{id: id, report: rep, err: err}
				mu.Unlock()
			}(id, aggAddr)
		}
		wg.Wait()
		if rootErr != nil {
			t.Fatalf("root round: %v\n%s", rootErr, rootRep)
		}
		return rootG, rootRep, aggRes, siteRes
	}

	// Round 1: agg-c never connects; agg-a loses site-a2.
	rootG1, rootRep1, aggRes1, siteRes1 := runRound(
		map[string]*Aggregator{"agg-a": aggA, "agg-b": aggB},
		map[string]string{
			"site-a0": aggA.Addr(), "site-a1": aggA.Addr(),
			"site-b0": aggB.Addr(), "site-b1": aggB.Addr(),
		},
		transport.RoundOptions{
			Quorum:        2,
			AcceptTimeout: 5 * time.Second,
			ExpectedSites: []string{"agg-a", "agg-b", "agg-c"},
		},
	)

	if rootRep1.OK != 2 || rootRep1.Failed == 0 {
		t.Fatalf("root round 1: %d ok %d failed, want 2 ok with agg-c failed\n%s",
			rootRep1.OK, rootRep1.Failed, rootRep1)
	}
	for _, id := range []string{"agg-a", "agg-b"} {
		r := aggRes1[id]
		if r.err != nil {
			t.Fatalf("%s round 1: %v", id, r.err)
		}
		if r.global.NumClusters != rootG1.NumClusters {
			t.Errorf("%s broadcast a model with %d clusters, root has %d",
				id, r.global.NumClusters, rootG1.NumClusters)
		}
	}
	// Provenance chained up: the root report names both live aggregators
	// as level-1 interior nodes with their child-round accounting.
	wantAgg := map[string]struct{ expect, ok, failed, sources int }{
		"agg-a": {3, 2, 1, 2},
		"agg-b": {2, 2, 0, 2},
	}
	seen := 0
	for _, site := range rootRep1.Sites {
		if !site.OK {
			if site.SiteID != "agg-c" {
				t.Errorf("unexpected failure in root round 1: %+v", site)
			}
			continue
		}
		want, ok := wantAgg[site.SiteID]
		if !ok {
			t.Errorf("unexpected site %q at the root", site.SiteID)
			continue
		}
		seen++
		a := site.Agg
		if a == nil {
			t.Errorf("%s delivered no provenance section", site.SiteID)
			continue
		}
		if a.Level != 1 || a.SitesExpected != want.expect || a.SitesOK != want.ok ||
			a.SitesFailed != want.failed || len(a.Sources) != want.sources {
			t.Errorf("%s provenance = %s, want level 1 children %d/%d (%d failed, %d sources)",
				site.SiteID, a, want.ok, want.expect, want.failed, want.sources)
		}
		if a.Objects != site.Objects {
			t.Errorf("%s provenance objects %d != model objects %d", site.SiteID, a.Objects, site.Objects)
		}
	}
	if seen != 2 {
		t.Fatalf("root saw %d aggregators, want 2", seen)
	}
	aRep := aggRes1["agg-a"].report
	foundDead := false
	for _, site := range aRep.Sites {
		if site.SiteID == "site-a2" && !site.OK {
			foundDead = true
		}
	}
	if !foundDead {
		t.Errorf("agg-a round 1 did not report the dead site-a2:\n%s", aRep)
	}

	// The registry hot-swapped to the round-1 model.
	if v := reg.Version(); v != 1 {
		t.Fatalf("registry version = %d after round 1, want 1", v)
	}
	snap1 := reg.Current()
	if snap1 == nil || snap1.Global.NumClusters != rootG1.NumClusters {
		t.Fatalf("registry snapshot does not match the root model")
	}

	// Flat reference over the same live sites: every tree-relabeled site
	// must agree exactly (budget off ⇒ identical partitions).
	liveSites := []string{"site-a0", "site-a1", "site-b0", "site-b1"}
	var outcomes []*dbdc.LocalOutcome
	var flatModels []*model.LocalModel
	for _, id := range liveSites {
		o, err := dbdc.LocalStep(id, siteIDs[id], cfg)
		if err != nil {
			t.Fatalf("flat LocalStep %s: %v", id, err)
		}
		outcomes = append(outcomes, o)
		flatModels = append(flatModels, o.Model)
	}
	flatG, err := dbdc.GlobalStep(flatModels, cfg)
	if err != nil {
		t.Fatalf("flat GlobalStep: %v", err)
	}
	if len(flatG.Reps) != len(rootG1.Reps) || flatG.NumClusters != rootG1.NumClusters {
		t.Fatalf("tree root clustered %d reps into %d clusters, flat %d into %d",
			len(rootG1.Reps), rootG1.NumClusters, len(flatG.Reps), flatG.NumClusters)
	}
	var treeLabels, flatLabels cluster.Labeling
	for i, id := range liveSites {
		sr := siteRes1[id]
		if sr.err != nil {
			t.Fatalf("site %s round 1: %v", id, sr.err)
		}
		treeLabels = append(treeLabels, sr.report.Labels...)
		fl, _, err := dbdc.RelabelSite(outcomes[i], flatG)
		if err != nil {
			t.Fatalf("flat RelabelSite %s: %v", id, err)
		}
		flatLabels = append(flatLabels, fl...)
	}
	if err := samePartition(treeLabels, flatLabels); err != nil {
		t.Fatalf("tree relabeling diverges from the flat run: %v", err)
	}

	// Classify through the registry snapshot vs the flat model: same
	// partition of the whole dataset.
	flatCls, err := serve.NewClassifier(flatG)
	if err != nil {
		t.Fatalf("flat classifier: %v", err)
	}
	var clsTree, clsFlat cluster.Labeling
	for _, p := range ds.Points {
		ct, err := snap1.Classifier.Classify(p)
		if err != nil {
			t.Fatalf("tree classify: %v", err)
		}
		cf, err := flatCls.Classify(p)
		if err != nil {
			t.Fatalf("flat classify: %v", err)
		}
		clsTree = append(clsTree, ct)
		clsFlat = append(clsFlat, cf)
	}
	if err := samePartition(clsTree, clsFlat); err != nil {
		t.Fatalf("served classification diverges from the flat model: %v", err)
	}

	// Round 2: agg-c comes alive with site-c0; the tree completes fully
	// and the registry hot-swaps to version 2.
	aggC := newAgg("agg-c", 1, 1, []string{"site-c0"})
	defer aggC.Close()
	_, rootRep2, aggRes2, siteRes2 := runRound(
		map[string]*Aggregator{"agg-a": aggA, "agg-b": aggB, "agg-c": aggC},
		map[string]string{
			"site-a0": aggA.Addr(), "site-a1": aggA.Addr(),
			"site-b0": aggB.Addr(), "site-b1": aggB.Addr(),
			"site-c0": aggC.Addr(),
		},
		transport.RoundOptions{
			Quorum:        2,
			AcceptTimeout: 5 * time.Second,
			ExpectedSites: []string{"agg-a", "agg-b", "agg-c"},
		},
	)
	if rootRep2.OK != 3 {
		t.Fatalf("root round 2: %d ok, want 3\n%s", rootRep2.OK, rootRep2)
	}
	for id, r := range aggRes2 {
		if r.err != nil {
			t.Fatalf("%s round 2: %v", id, r.err)
		}
		if r.report.ForwardDuration <= 0 {
			t.Errorf("%s round 2 reported no forward cost", id)
		}
	}
	for id, r := range siteRes2 {
		if r.err != nil {
			t.Fatalf("site %s round 2: %v", id, r.err)
		}
	}
	if v := reg.Version(); v != 2 {
		t.Fatalf("registry version = %d after round 2, want 2 (no hot swap)", v)
	}
	if lvl := aggC.Level(); lvl != 1 {
		t.Errorf("agg-c level = %d, want 1", lvl)
	}
}

// TestTreeParentDownFailsRound: when the parent is unreachable the leaf
// round must fail cleanly — children get a transport error, not a regional
// model masquerading as the global one.
func TestTreeParentDownFailsRound(t *testing.T) {
	ds := data.DatasetA(600, 12)
	rng := rand.New(rand.NewSource(12))
	part, err := data.PartitionRandom(len(ds.Points), 2, rng)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	sitePts := part.Extract(ds.Points)
	cfg := dbdc.Config{Local: ds.Params, EpsGlobal: 2 * ds.Params.Eps}

	// A parent address nothing listens on: reserve a port and close it.
	dead, err := transport.NewServer("127.0.0.1:0", 1, cfg, time.Second)
	if err != nil {
		t.Fatalf("placeholder server: %v", err)
	}
	parentAddr := dead.Addr()
	dead.Close()

	agg, err := New("127.0.0.1:0", Config{
		ID:            "agg-a",
		Parent:        parentAddr,
		Expect:        2,
		Cluster:       cfg,
		Timeout:       2 * time.Second,
		AcceptTimeout: 2 * time.Second,
		Retry:         transport.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatalf("aggregator: %v", err)
	}
	defer agg.Close()

	type siteOut struct {
		rep *transport.SiteReport
		err error
	}
	outs := make(chan siteOut, 2)
	for s := 0; s < 2; s++ {
		go func(s int) {
			c := &transport.Client{Addr: agg.Addr(), Timeout: 5 * time.Second}
			rep, err := transport.RunSiteClient(c, fmt.Sprintf("site-%d", s), sitePts[s], cfg)
			outs <- siteOut{rep, err}
		}(s)
	}
	_, _, err = agg.RunRound()
	if err == nil {
		t.Fatal("leaf round succeeded with the parent down")
	}
	for i := 0; i < 2; i++ {
		o := <-outs
		if o.err == nil {
			t.Fatalf("site received a global model although the parent was down: %+v", o.rep.Global)
		}
	}
}

// TestAggregatorClusterRepBudget: an aggregator whose Cluster config carries
// RepBudget 1 forwards at most one representative per regional cluster, and
// says so in the budget section its parent reports — over children whose own
// uploads hold more representatives than there are regional clusters.
func TestAggregatorClusterRepBudget(t *testing.T) {
	ds := data.DatasetA(600, 13)
	part, err := data.PartitionRandom(len(ds.Points), 2, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	sitePts := part.Extract(ds.Points)
	cfg := dbdc.Config{Local: ds.Params, EpsGlobal: 2 * ds.Params.Eps}
	const timeout = 10 * time.Second

	root, err := transport.NewServer("127.0.0.1:0", 1, cfg, timeout)
	if err != nil {
		t.Fatalf("root server: %v", err)
	}
	defer root.Close()
	aggCfg := cfg
	aggCfg.RepBudget = 1
	agg, err := New("127.0.0.1:0", Config{ID: "agg-a", Parent: root.Addr(), Expect: 2, Cluster: aggCfg, Timeout: timeout})
	if err != nil {
		t.Fatalf("aggregator: %v", err)
	}
	defer agg.Close()

	var (
		wg        sync.WaitGroup
		rootRep   *transport.RoundReport
		rootErr   error
		aggReport *transport.RoundReport
		aggErr    error
	)
	wg.Add(2 + len(sitePts))
	go func() {
		defer wg.Done()
		_, rootRep, rootErr = root.RunRoundOpts(transport.RoundOptions{})
	}()
	go func() {
		defer wg.Done()
		_, aggReport, aggErr = agg.RunRound()
	}()
	for s, pts := range sitePts {
		go func(id string, pts []geom.Point) {
			defer wg.Done()
			if _, err := transport.RunSiteClient(&transport.Client{Addr: agg.Addr(), Timeout: timeout}, id, pts, cfg); err != nil {
				t.Errorf("%s: %v", id, err)
			}
		}(fmt.Sprintf("site-%d", s), pts)
	}
	wg.Wait()
	if rootErr != nil || aggErr != nil {
		t.Fatalf("root round: %v; aggregator round: %v\n%s\n%s", rootErr, aggErr, rootRep, aggReport)
	}
	if len(rootRep.Sites) != 1 || rootRep.Sites[0].SiteID != "agg-a" {
		t.Fatalf("root report: %s", rootRep)
	}
	up := rootRep.Sites[0]
	if up.Agg == nil || up.Budget == nil {
		t.Fatalf("agg-a upload carries no provenance or budget section: %+v", up)
	}
	childReps := 0
	for _, s := range aggReport.Sites {
		childReps += s.Reps
	}
	clusters := up.Agg.RegionalClusters
	if childReps <= clusters {
		t.Fatalf("children uploaded %d representatives for %d regional clusters: the budget cannot bite", childReps, clusters)
	}
	if up.Budget.RepBudget != 1 || up.Reps < 1 || up.Reps > clusters {
		t.Fatalf("agg-a forwarded %d representatives under budget %d for %d regional clusters, want 1..%d under budget 1",
			up.Reps, up.Budget.RepBudget, clusters, clusters)
	}
}
