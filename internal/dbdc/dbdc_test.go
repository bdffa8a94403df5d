package dbdc

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/incdbscan"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
)

func blob(rng *rand.Rand, cx, cy, spread float64, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread}
	}
	return pts
}

func defaultCfg() Config {
	return Config{Local: dbscan.Params{Eps: 0.5, MinPts: 5}}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		edit   func(c *Config)
		reject string // what the error names; empty when the config is legal
	}{
		{"default", func(*Config) {}, ""},
		{"local-eps-zero", func(c *Config) { c.Local.Eps = 0 }, "got 0"},
		{"local-eps-nan", func(c *Config) { c.Local.Eps = math.NaN() }, "NaN"},
		{"model-unknown", func(c *Config) { c.Model = "nope" }, "nope"},
		{"eps-global-negative", func(c *Config) { c.EpsGlobal = -1 }, "-1"},
		{"eps-global-nan", func(c *Config) { c.EpsGlobal = math.NaN() }, "NaN"},
		{"eps-global-inf", func(c *Config) { c.EpsGlobal = math.Inf(1) }, "+Inf"},
		{"eps-global-wider-than-any-data", func(c *Config) { c.EpsGlobal = math.MaxFloat64 }, ""},
		{"site-workers-negative", func(c *Config) { c.SiteWorkers = -1 }, "-1"},
		{"rep-budget-negative", func(c *Config) { c.RepBudget = -1 }, "-1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := defaultCfg()
			c.edit(&cfg)
			err := cfg.Validate()
			if c.reject == "" && err != nil {
				t.Fatalf("legal config rejected: %v", err)
			}
			if c.reject != "" && (err == nil || !strings.Contains(err.Error(), c.reject)) {
				t.Fatalf("err %v, want an error naming %s", err, c.reject)
			}
		})
	}
}

func TestLocalStepScor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := append(blob(rng, 0, 0, 0.3, 150), blob(rng, 10, 0, 0.3, 150)...)
	out, err := LocalStep("s1", pts, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if out.Model.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2", out.Model.NumClusters)
	}
	if err := out.Model.Validate(); err != nil {
		t.Fatalf("produced invalid model: %v", err)
	}
	if len(out.Model.Reps) == 0 || len(out.Model.Reps) > 100 {
		t.Fatalf("suspicious representative count %d", len(out.Model.Reps))
	}
	// Every REP_Scor representative is an actual data object.
	for _, r := range out.Model.Reps {
		found := false
		for _, p := range pts {
			if p.Equal(r.Point) {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("REP_Scor representative is not a database object")
		}
	}
}

func TestLocalStepKMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := append(blob(rng, 0, 0, 0.3, 150), blob(rng, 10, 0, 0.3, 150)...)
	cfg := defaultCfg()
	cfg.Model = model.RepKMeans
	out, err := LocalStep("s1", pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Model.Validate(); err != nil {
		t.Fatalf("produced invalid model: %v", err)
	}
	// Same number of representatives as REP_Scor (the paper fixes
	// k = |Scor_C| per cluster).
	scorOut, err := LocalStep("s1", pts, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Model.Reps) != len(scorOut.Model.Reps) {
		t.Fatalf("REP_kMeans has %d reps, REP_Scor %d — must match",
			len(out.Model.Reps), len(scorOut.Model.Reps))
	}
}

// Every cluster member must lie within the ε-range of some representative
// of its own cluster — for both local models.
func TestLocalModelCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := append(blob(rng, 0, 0, 0.5, 200), blob(rng, 6, 3, 0.8, 200)...)
	e := geom.Euclidean{}
	for _, kind := range model.Kinds() {
		cfg := defaultCfg()
		cfg.Model = kind
		out, err := LocalStep("s1", pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			id := out.Clustering.Labels[i]
			if id < 0 {
				continue
			}
			covered := false
			for _, r := range out.Model.Reps {
				if r.LocalCluster == id && e.Distance(p, r.Point) <= r.Eps {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("%s: member %d of cluster %d not covered", kind, i, id)
			}
		}
	}
}

func TestLocalStepEmptySite(t *testing.T) {
	out, err := LocalStep("s1", nil, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Model.Reps) != 0 || out.Model.NumClusters != 0 {
		t.Fatal("empty site produced representatives")
	}
}

func TestLocalStepAllNoise(t *testing.T) {
	pts := []geom.Point{{0, 0}, {10, 10}, {20, 20}}
	out, err := LocalStep("s1", pts, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Model.Reps) != 0 {
		t.Fatal("noise-only site produced representatives")
	}
}

// TestFigure4MergeScenario reconstructs Figure 4 of the paper: clusters on
// three sites whose representatives are chained roughly Eps_local apart.
// With Eps_global = Eps_local the chain must NOT merge into one cluster;
// with Eps_global = 2·Eps_local it must.
func TestFigure4MergeScenario(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	eps := 0.5
	// Four dense clumps in a row, 0.9·2·eps apart (so consecutive clump
	// representatives sit within 2·eps but beyond eps of each other).
	gap := 1.8 * eps
	mkClump := func(cx float64) []geom.Point {
		return blob(rng, cx, 0, 0.05, 60)
	}
	sites := []Site{
		{ID: "site1", Points: append(mkClump(0), mkClump(gap)...)},
		{ID: "site2", Points: mkClump(2 * gap)},
		{ID: "site3", Points: mkClump(3 * gap)},
	}
	run := func(epsGlobal float64) *Result {
		cfg := defaultCfg()
		cfg.Local = dbscan.Params{Eps: eps, MinPts: 5}
		cfg.EpsGlobal = epsGlobal
		res, err := Run(sites, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// (VIII): Eps_global = Eps_local is insufficient to merge the chain.
	if res := run(eps); res.Global.NumClusters == 1 {
		t.Fatalf("Eps_global = Eps_local should not merge everything (got %d clusters)",
			res.Global.NumClusters)
	}
	// (IX): Eps_global = 2·Eps_local merges all four clumps into one.
	if res := run(2 * eps); res.Global.NumClusters != 1 {
		t.Fatalf("Eps_global = 2·Eps_local should merge everything, got %d clusters",
			res.Global.NumClusters)
	}
}

// TestFigure5RelabelScenario reconstructs Figure 5: local noise objects
// within the ε-range of another site's representative join that global
// cluster; objects outside every ε-range stay noise.
func TestFigure5RelabelScenario(t *testing.T) {
	// A global model with one representative from "another site".
	global := &model.GlobalModel{
		EpsGlobal:    1,
		MinPtsGlobal: 2,
		NumClusters:  1,
		Reps: []model.GlobalRepresentative{{
			Representative: model.Representative{Point: geom.Point{0, 0}, Eps: 1.0, LocalCluster: 0},
			SiteID:         "other",
			GlobalCluster:  7,
		}},
	}
	pts := []geom.Point{
		{0.5, 0}, // A: inside ε_R3 → adopted
		{0, 0.9}, // B: inside → adopted
		{2.5, 0}, // C: outside → stays noise
	}
	labels, err := Relabel(pts, global)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != 7 || labels[1] != 7 {
		t.Fatalf("objects in ε-range not adopted: %v", labels)
	}
	if labels[2] != cluster.Noise {
		t.Fatalf("object outside every ε-range adopted: %v", labels)
	}
}

func TestRelabelNearestRepWins(t *testing.T) {
	global := &model.GlobalModel{
		EpsGlobal: 1, MinPtsGlobal: 2, NumClusters: 2,
		Reps: []model.GlobalRepresentative{
			{Representative: model.Representative{Point: geom.Point{0, 0}, Eps: 2, LocalCluster: 0}, SiteID: "a", GlobalCluster: 1},
			{Representative: model.Representative{Point: geom.Point{3, 0}, Eps: 2, LocalCluster: 0}, SiteID: "b", GlobalCluster: 2},
		},
	}
	labels, err := Relabel([]geom.Point{{1, 0}, {2, 0}}, global)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != 1 || labels[1] != 2 {
		t.Fatalf("nearest representative did not win: %v", labels)
	}
}

func TestRelabelEmpty(t *testing.T) {
	labels, err := Relabel(nil, &model.GlobalModel{EpsGlobal: 1, MinPtsGlobal: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 0 {
		t.Fatal("nonempty labels for empty site")
	}
	labels, err = Relabel([]geom.Point{{0, 0}}, &model.GlobalModel{EpsGlobal: 1, MinPtsGlobal: 2})
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != cluster.Noise {
		t.Fatal("object labelled without any representative")
	}
}

func TestGlobalStepSingletons(t *testing.T) {
	// Two far-apart representatives: no merge, two singleton global
	// clusters — never noise.
	m := &model.LocalModel{
		SiteID: "s1", Kind: model.RepScor, EpsLocal: 0.5, MinPts: 5,
		NumObjects: 10, NumClusters: 2,
		Reps: []model.Representative{
			{Point: geom.Point{0, 0}, Eps: 1, LocalCluster: 0},
			{Point: geom.Point{100, 100}, Eps: 1, LocalCluster: 1},
		},
	}
	g, err := GlobalStep([]*model.LocalModel{m}, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2 singletons", g.NumClusters)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Reps[0].GlobalCluster == g.Reps[1].GlobalCluster {
		t.Fatal("far representatives share a cluster")
	}
}

func TestGlobalStepDefaultEps(t *testing.T) {
	m := &model.LocalModel{
		SiteID: "s1", Kind: model.RepScor, EpsLocal: 0.5, MinPts: 5,
		NumObjects: 10, NumClusters: 1,
		Reps: []model.Representative{
			{Point: geom.Point{0, 0}, Eps: 0.8, LocalCluster: 0},
			{Point: geom.Point{1, 0}, Eps: 0.95, LocalCluster: 0},
		},
	}
	g, err := GlobalStep([]*model.LocalModel{m}, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if g.EpsGlobal != 0.95 {
		t.Fatalf("default EpsGlobal = %v, want max ε_R = 0.95", g.EpsGlobal)
	}
	// The two reps are 1.0 apart > 0.95: two clusters... but wait, 1.0 >
	// 0.95 means no merge.
	if g.NumClusters != 2 {
		t.Fatalf("NumClusters = %d", g.NumClusters)
	}
}

func TestGlobalStepRejectsInvalidModel(t *testing.T) {
	bad := &model.LocalModel{SiteID: "", Kind: model.RepScor, EpsLocal: 1}
	if _, err := GlobalStep([]*model.LocalModel{bad}, defaultCfg()); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestGlobalStepNoModels(t *testing.T) {
	g, err := GlobalStep(nil, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumClusters != 0 || len(g.Reps) != 0 {
		t.Fatal("empty input produced clusters")
	}
}

func TestRunEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// One spatial cluster split across two sites plus one cluster wholly on
	// site 2, plus scattered noise.
	shared := blob(rng, 0, 0, 0.3, 300)
	own := blob(rng, 8, 8, 0.3, 200)
	noise := []geom.Point{{-20, -20}, {30, -10}, {-15, 25}}
	sites := []Site{
		{ID: "a", Points: append(shared[:150:150], noise[0])},
		{ID: "b", Points: append(append(shared[150:], own...), noise[1], noise[2])},
	}
	for _, kind := range model.Kinds() {
		cfg := defaultCfg()
		cfg.Model = kind
		res, err := Run(sites, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Global.NumClusters != 2 {
			t.Fatalf("%s: global clusters = %d, want 2", kind, res.Global.NumClusters)
		}
		// The shared cluster must carry ONE global id across both sites.
		idA := res.Sites["a"].Labels[0]
		idB := res.Sites["b"].Labels[0]
		if idA < 0 || idA != idB {
			t.Fatalf("%s: shared cluster ids differ across sites: %v vs %v", kind, idA, idB)
		}
		// Noise points far from everything stay noise.
		nA := res.Sites["a"].Labels[len(sites[0].Points)-1]
		if nA != cluster.Noise {
			t.Fatalf("%s: distant noise adopted: %v", kind, nA)
		}
		// Bytes accounting present.
		if res.Sites["a"].UplinkBytes <= 0 || res.Sites["a"].DownlinkBytes <= 0 {
			t.Fatalf("%s: missing byte accounting", kind)
		}
		if res.DistributedDuration() <= 0 {
			t.Fatalf("%s: missing timing", kind)
		}
		if res.TotalObjects() != len(sites[0].Points)+len(sites[1].Points) {
			t.Fatalf("%s: TotalObjects wrong", kind)
		}
		if res.TotalRepresentatives() == 0 {
			t.Fatalf("%s: no representatives", kind)
		}
	}
}

func TestRunValidation(t *testing.T) {
	site := []Site{{ID: "a", Points: []geom.Point{{0, 0}, {0.1, 0}}}}
	cases := []struct {
		name  string
		sites []Site
		edit  func(c *Config)
	}{
		{"no-sites", nil, func(*Config) {}},
		{"empty-site-id", []Site{{ID: ""}}, func(*Config) {}},
		{"duplicate-site-ids", []Site{{ID: "a"}, {ID: "a"}}, func(*Config) {}},
		{"local-min-pts-zero", site, func(c *Config) { c.Local.MinPts = 0 }},
		{"local-eps-nan", site, func(c *Config) { c.Local.Eps = math.NaN() }},
		{"eps-global-nan", site, func(c *Config) { c.EpsGlobal = math.NaN() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := defaultCfg()
			c.edit(&cfg)
			if res, err := Run(c.sites, cfg); err == nil {
				t.Fatalf("accepted: a global model of %d representatives", len(res.Global.Reps))
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sites := []Site{
		{ID: "a", Points: blob(rng, 0, 0, 0.4, 200)},
		{ID: "b", Points: blob(rng, 1, 0, 0.4, 200)},
	}
	r1, err := Run(sites, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sites, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	for id := range r1.Sites {
		a, b := r1.Sites[id].Labels, r2.Sites[id].Labels
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("site %s: nondeterministic label at %d", id, i)
			}
		}
	}
}

// Property: DBDC with one site and Eps_global = Eps_local reproduces the
// central DBSCAN partition up to noise adoption: every central cluster maps
// to exactly one DBDC global cluster.
func TestSingleSiteAgreesWithCentral(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := append(append(blob(rng, 0, 0, 0.4, 200), blob(rng, 6, 0, 0.4, 200)...),
		blob(rng, 3, 6, 0.4, 200)...)
	cfg := defaultCfg()
	res, err := Run([]Site{{ID: "only", Points: pts}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := index.Build(index.KindLinear, pts, geom.Euclidean{}, cfg.Local.Eps)
	if err != nil {
		t.Fatal(err)
	}
	central, err := dbscan.Run(lin, cfg.Local, dbscan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if central.NumClusters() != 3 {
		t.Fatalf("central clusters = %d, want 3", central.NumClusters())
	}
	dist := res.Sites["only"].Labels
	// Every central cluster's members must map to a single global id.
	for _, id := range central.Labels.ClusterIDs() {
		members := central.Labels.Members(id)
		first := dist[members[0]]
		if first < 0 {
			t.Fatalf("cluster member lost to noise")
		}
		for _, m := range members[1:] {
			if dist[m] != first {
				t.Fatalf("central cluster %d split in DBDC", id)
			}
		}
	}
}

func TestOpticsOrdererMatchesGlobalStep(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sites := []Site{
		{ID: "a", Points: blob(rng, 0, 0, 0.3, 200)},
		{ID: "b", Points: blob(rng, 1.2, 0, 0.3, 200)},
		{ID: "c", Points: blob(rng, 40, 0, 0.3, 200)},
	}
	cfg := defaultCfg()
	var models []*model.LocalModel
	for _, s := range sites {
		out, err := LocalStep(s.ID, s.Points, cfg)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, out.Model)
	}
	ord, err := NewOpticsOrderer(models, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ord.Reachabilities()) == 0 {
		t.Fatal("no reachabilities")
	}
	if _, err := ord.Extract(0); err == nil {
		t.Error("cut 0 accepted")
	}
	if _, err := ord.Extract(ord.EpsMax() * 2); err == nil {
		t.Error("cut beyond EpsMax accepted")
	}
	for _, factor := range []float64{1.0, 2.0} {
		cut := factor * cfg.Local.Eps
		fromOptics, err := ord.Extract(cut)
		if err != nil {
			t.Fatal(err)
		}
		cfgCut := cfg
		cfgCut.EpsGlobal = cut
		fromDBSCAN, err := GlobalStep(models, cfgCut)
		if err != nil {
			t.Fatal(err)
		}
		if fromOptics.NumClusters != fromDBSCAN.NumClusters {
			t.Fatalf("cut %v: OPTICS extraction finds %d clusters, DBSCAN %d",
				cut, fromOptics.NumClusters, fromDBSCAN.NumClusters)
		}
	}
}

// Property: across random multi-site data sets the end-to-end pipeline
// produces structurally valid output: validated models, every object either
// noise or in a global cluster that has a representative within max ε.
func TestPipelineStructuralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		numSites := 2 + rng.Intn(4)
		sites := make([]Site, numSites)
		for s := range sites {
			var pts []geom.Point
			for b := 0; b < 1+rng.Intn(3); b++ {
				pts = append(pts, blob(rng, rng.Float64()*10, rng.Float64()*10,
					0.2+rng.Float64()*0.3, 50+rng.Intn(100))...)
			}
			sites[s] = Site{ID: string(rune('a' + s)), Points: pts}
		}
		cfg := defaultCfg()
		if trial%2 == 1 {
			cfg.Model = model.RepKMeans
		}
		res, err := Run(sites, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Global.Validate(); err != nil {
			t.Fatal(err)
		}
		repOf := make(map[cluster.ID][]model.GlobalRepresentative)
		for _, r := range res.Global.Reps {
			repOf[r.GlobalCluster] = append(repOf[r.GlobalCluster], r)
		}
		e := geom.Euclidean{}
		for _, s := range sites {
			labels := res.Sites[s.ID].Labels
			if err := labels.Validate(); err != nil {
				t.Fatal(err)
			}
			for i, p := range s.Points {
				if labels[i] == cluster.Noise {
					continue
				}
				// The object must be inside the ε-range of a representative
				// of its assigned global cluster.
				ok := false
				for _, r := range repOf[labels[i]] {
					if e.Distance(p, r.Point) <= r.Eps {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("site %s object %d assigned to cluster %d without covering rep",
						s.ID, i, labels[i])
				}
			}
		}
	}
}

func TestRelabelSiteStats(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Site with two local clumps that the global model merges, plus noise
	// near a foreign representative.
	pts := append(blob(rng, 0, 0, 0.05, 50), blob(rng, 0.9, 0, 0.05, 50)...)
	pts = append(pts, geom.Point{5, 0}) // local noise
	cfg := defaultCfg()
	cfg.Local = dbscan.Params{Eps: 0.3, MinPts: 5}
	out, err := LocalStep("s1", pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Model.NumClusters != 2 {
		t.Fatalf("setup: want 2 local clusters, got %d", out.Model.NumClusters)
	}
	foreign := &model.LocalModel{
		SiteID: "s2", Kind: model.RepScor, EpsLocal: 0.3, MinPts: 5,
		NumObjects: 10, NumClusters: 1,
		Reps: []model.Representative{
			// Bridges the two clumps and covers the noise point.
			{Point: geom.Point{0.45, 0}, Eps: 0.6, LocalCluster: 0},
			{Point: geom.Point{4.8, 0}, Eps: 0.6, LocalCluster: 0},
		},
	}
	cfg.EpsGlobal = 0.6
	global, err := GlobalStep([]*model.LocalModel{out.Model, foreign}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	labels, stats, err := RelabelSite(out, global)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NoiseAdopted != 1 {
		t.Fatalf("NoiseAdopted = %d, want 1 (labels %v)", stats.NoiseAdopted, labels[len(labels)-1])
	}
	if stats.LocalClustersMerged != 2 {
		t.Fatalf("LocalClustersMerged = %d, want 2", stats.LocalClustersMerged)
	}
	if labels[0] != labels[50] {
		t.Fatal("merged clumps carry different global ids")
	}
}

func TestDistributedDurationComposition(t *testing.T) {
	r := &Result{
		GlobalDuration: 5,
		Sites: map[string]*SiteResult{
			"a": {LocalDuration: 10, RelabelDuration: 1},
			"b": {LocalDuration: 7, RelabelDuration: 9},
		},
	}
	if got := r.DistributedDuration(); got != 21 {
		t.Fatalf("DistributedDuration = %v, want max(11,16)+5 = 21", got)
	}
}

func TestKMeansRepsEpsupperBound(t *testing.T) {
	// REP_kMeans ε-ranges are bounded by the cluster diameter; sanity-check
	// they stay finite and positive on a degenerate single-blob cluster.
	rng := rand.New(rand.NewSource(12))
	pts := blob(rng, 0, 0, 0.2, 100)
	cfg := defaultCfg()
	cfg.Model = model.RepKMeans
	out, err := LocalStep("s", pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Model.Reps {
		if r.Eps <= 0 || math.IsInf(r.Eps, 0) || math.IsNaN(r.Eps) {
			t.Fatalf("bad kmeans rep eps %v", r.Eps)
		}
	}
}

func TestOpticsOrdererSuggestCut(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Two groups of sites, each holding half of one of two far-apart
	// clusters: the suggested cut must merge within-cluster representatives
	// without bridging the two clusters.
	c1 := blob(rng, 0, 0, 0.4, 400)
	c2 := blob(rng, 40, 0, 0.4, 400)
	cfg := defaultCfg()
	var models []*model.LocalModel
	for i, pts := range [][]geom.Point{c1[:200], c1[200:], c2[:200], c2[200:]} {
		out, err := LocalStep(string(rune('a'+i)), pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, out.Model)
	}
	ord, err := NewOpticsOrderer(models, cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := ord.SuggestCut(2)
	if err != nil {
		t.Fatal(err)
	}
	global, err := ord.Extract(cut)
	if err != nil {
		t.Fatal(err)
	}
	if global.NumClusters != 2 {
		t.Fatalf("suggested cut %v yields %d global clusters, want 2", cut, global.NumClusters)
	}
}

// DBDC is not restricted to the paper's 2-D evaluation setting: the whole
// pipeline works in higher-dimensional spaces.
func TestHigherDimensionalPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mk := func(center []float64, n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			p := make(geom.Point, len(center))
			for d := range p {
				p[d] = center[d] + rng.NormFloat64()*0.3
			}
			pts[i] = p
		}
		return pts
	}
	c1 := []float64{0, 0, 0, 0, 0}
	c2 := []float64{5, 5, 5, 5, 5}
	shared := mk(c1, 300)
	sites := []Site{
		{ID: "a", Points: append(shared[:150:150], mk(c2, 150)...)},
		{ID: "b", Points: append(shared[150:], mk(c2, 150)...)},
	}
	cfg := Config{Local: dbscan.Params{Eps: 0.9, MinPts: 6}}
	res, err := Run(sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Global.NumClusters != 2 {
		t.Fatalf("5-D pipeline found %d global clusters, want 2", res.Global.NumClusters)
	}
	if res.Sites["a"].Labels[0] != res.Sites["b"].Labels[0] {
		t.Fatal("5-D shared cluster not unified")
	}
}

func TestClusteringChange(t *testing.T) {
	a := cluster.Labeling{0, 0, 0, 1, 1, cluster.Noise}
	if got, err := ClusteringChange(a, a); err != nil || got != 0 {
		t.Fatalf("identical labelings: change = %v, %v", got, err)
	}
	// Renaming is no change.
	b := cluster.Labeling{7, 7, 7, 3, 3, cluster.Noise}
	if got, err := ClusteringChange(a, b); err != nil || got != 0 {
		t.Fatalf("renamed labelings: change = %v, %v", got, err)
	}
	// A split is a change strictly between 0 and 1.
	c := cluster.Labeling{0, 0, 2, 1, 1, cluster.Noise}
	got, err := ClusteringChange(a, c)
	if err != nil || got <= 0 || got >= 1 {
		t.Fatalf("split: change = %v, %v", got, err)
	}
	// Complete turnover: everything clustered became noise.
	d := cluster.Labeling{cluster.Noise, cluster.Noise, cluster.Noise,
		cluster.Noise, cluster.Noise, cluster.Noise}
	full, err := ClusteringChange(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if full < 0.8 {
		t.Fatalf("turnover: change = %v", full)
	}
	if _, err := ClusteringChange(a, cluster.Labeling{0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestPadSnapshot(t *testing.T) {
	prev := cluster.Labeling{0, 1}
	got, err := PadSnapshot(prev, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := cluster.Labeling{0, 1, cluster.Noise, cluster.Noise}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PadSnapshot = %v", got)
		}
	}
	if _, err := PadSnapshot(cluster.Labeling{0, 1, 2}, 2); err == nil {
		t.Fatal("shrinking pad accepted")
	}
}

// The policy end to end with incremental DBSCAN: growing an existing
// cluster barely moves the change metric; a brand-new cluster moves it
// past any sensible threshold.
func TestChangePolicyWithIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inc, err := incdbscan.New(dbscan.Params{Eps: 0.5, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range blob(rng, 0, 0, 0.3, 200) {
		if _, err := inc.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := inc.Labels()
	// Densify the existing cluster slightly (5%): small change.
	for _, p := range blob(rng, 0, 0, 0.3, 10) {
		if _, err := inc.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	padded, err := PadSnapshot(snapshot, inc.Len())
	if err != nil {
		t.Fatal(err)
	}
	small, err := ClusteringChange(padded, inc.Labels())
	if err != nil {
		t.Fatal(err)
	}
	// A second, equally sized cluster appears: large change.
	for _, p := range blob(rng, 10, 0, 0.3, 250) {
		if _, err := inc.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	padded, err = PadSnapshot(snapshot, inc.Len())
	if err != nil {
		t.Fatal(err)
	}
	large, err := ClusteringChange(padded, inc.Labels())
	if err != nil {
		t.Fatal(err)
	}
	if small >= large {
		t.Fatalf("densification change %v not below new-cluster change %v", small, large)
	}
	if small > 0.3 || large < 0.3 {
		t.Fatalf("threshold 0.3 does not separate: small=%v large=%v", small, large)
	}
}

// Property: Relabel only ever assigns ids that exist in the global model,
// and every assignment is justified by a covering representative.
func TestRelabelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	e := geom.Euclidean{}
	for trial := 0; trial < 30; trial++ {
		numReps := 1 + rng.Intn(12)
		global := &model.GlobalModel{EpsGlobal: 1, MinPtsGlobal: 2}
		valid := map[cluster.ID]bool{}
		for i := 0; i < numReps; i++ {
			id := cluster.ID(rng.Intn(5))
			valid[id] = true
			global.Reps = append(global.Reps, model.GlobalRepresentative{
				Representative: model.Representative{
					Point:        geom.Point{rng.Float64() * 10, rng.Float64() * 10},
					Eps:          0.2 + rng.Float64()*2,
					LocalCluster: 0,
				},
				SiteID:        "s",
				GlobalCluster: id,
			})
		}
		global.NumClusters = len(valid)
		pts := make([]geom.Point, 50)
		for i := range pts {
			pts[i] = geom.Point{rng.Float64() * 12, rng.Float64() * 12}
		}
		labels, err := Relabel(pts, global)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range labels {
			if l == cluster.Noise {
				// No representative may cover it.
				for _, r := range global.Reps {
					if e.Distance(pts[i], r.Point) <= r.Eps {
						t.Fatalf("covered object %d labelled noise", i)
					}
				}
				continue
			}
			if !valid[l] {
				t.Fatalf("object %d got id %d not present in the model", i, l)
			}
			// The nearest covering representative must carry exactly l.
			best, bestDist := cluster.Noise, math.Inf(1)
			for _, r := range global.Reps {
				if d := e.Distance(pts[i], r.Point); d <= r.Eps && d < bestDist {
					best, bestDist = r.GlobalCluster, d
				}
			}
			if best != l {
				t.Fatalf("object %d: got %d, nearest covering rep has %d", i, l, best)
			}
		}
	}
}

func TestRunPropagatesSiteErrors(t *testing.T) {
	// A site with mixed-dimensionality points makes its local index build
	// fail; the orchestrator must surface that error, in both concurrent
	// and sequential modes.
	sites := []Site{
		{ID: "good", Points: []geom.Point{{0, 0}, {0.1, 0}, {0.2, 0}}},
		{ID: "bad", Points: []geom.Point{{0, 0}, {1, 2, 3}}},
	}
	for _, sequential := range []bool{false, true} {
		cfg := defaultCfg()
		cfg.Sequential = sequential
		if _, err := Run(sites, cfg); err == nil {
			t.Errorf("sequential=%v: site error swallowed", sequential)
		}
	}
}

func TestEpsGlobalAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	// Two clusters split across sites; the automatic cut must merge the
	// halves without bridging the two clusters — no rule of thumb given.
	c1 := blob(rng, 0, 0, 0.4, 400)
	c2 := blob(rng, 30, 0, 0.4, 400)
	sites := []Site{
		{ID: "a", Points: append(c1[:200:200], c2[:200]...)},
		{ID: "b", Points: append(c1[200:], c2[200:]...)},
	}
	cfg := defaultCfg()
	cfg.EpsGlobalAuto = true
	res, err := Run(sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Global.NumClusters != 2 {
		t.Fatalf("auto eps found %d global clusters, want 2 (eps=%v)",
			res.Global.NumClusters, res.Global.EpsGlobal)
	}
	if res.Sites["a"].Labels[0] != res.Sites["b"].Labels[0] {
		t.Fatal("cluster halves not unified under auto eps")
	}
}

func TestEpsGlobalAutoFallback(t *testing.T) {
	// A single representative: no density gap exists; the auto mode must
	// fall back rather than fail.
	m := &model.LocalModel{
		SiteID: "s", Kind: model.RepScor, EpsLocal: 0.5, MinPts: 5,
		NumObjects: 10, NumClusters: 1,
		Reps: []model.Representative{{Point: geom.Point{0, 0}, Eps: 1, LocalCluster: 0}},
	}
	cfg := defaultCfg()
	cfg.EpsGlobalAuto = true
	g, err := GlobalStep([]*model.LocalModel{m}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumClusters != 1 {
		t.Fatalf("fallback produced %d clusters", g.NumClusters)
	}
}
