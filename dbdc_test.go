package dbdc_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	dbdc "github.com/dbdc-go/dbdc"
)

func testBlob(rng *rand.Rand, cx, cy, spread float64, n int) []dbdc.Point {
	pts := make([]dbdc.Point, n)
	for i := range pts {
		pts[i] = dbdc.Point{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread}
	}
	return pts
}

func TestPublicCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := append(testBlob(rng, 0, 0, 0.3, 100), testBlob(rng, 10, 0, 0.3, 100)...)
	res, err := dbdc.Cluster(pts, dbdc.Params{Eps: 0.5, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 2 {
		t.Fatalf("clusters = %d", res.NumClusters())
	}
}

func TestPublicRunPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shared := testBlob(rng, 0, 0, 0.3, 200)
	sites := []dbdc.Site{
		{ID: "a", Points: shared[:100]},
		{ID: "b", Points: shared[100:]},
	}
	res, err := dbdc.Run(sites, dbdc.Config{Local: dbdc.Params{Eps: 0.5, MinPts: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Global.NumClusters != 1 {
		t.Fatalf("clusters = %d", res.Global.NumClusters)
	}
	if res.Sites["a"].Labels[0] != res.Sites["b"].Labels[0] {
		t.Fatal("shared cluster not unified")
	}
}

func TestPublicStepByStep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ptsA := testBlob(rng, 0, 0, 0.3, 150)
	ptsB := testBlob(rng, 0.5, 0, 0.3, 150)
	cfg := dbdc.Config{Local: dbdc.Params{Eps: 0.5, MinPts: 5}, Model: dbdc.RepKMeans}
	outA, err := dbdc.LocalStep("a", ptsA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := dbdc.LocalStep("b", ptsB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	global, err := dbdc.GlobalStep([]*dbdc.LocalModel{outA.Model, outB.Model}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if global.NumClusters != 1 {
		t.Fatalf("clusters = %d", global.NumClusters)
	}
	labels, err := dbdc.Relabel(ptsA, global)
	if err != nil {
		t.Fatal(err)
	}
	if labels.NumClusters() != 1 {
		t.Fatalf("relabel found %d clusters", labels.NumClusters())
	}
}

func TestPublicQualityIdentity(t *testing.T) {
	l := dbdc.Labeling{0, 0, 1, 1, dbdc.Noise}
	if q, err := dbdc.QualityPI(l, l, 2); err != nil || q != 1 {
		t.Fatalf("PI identity = %v, %v", q, err)
	}
	if q, err := dbdc.QualityPII(l, l); err != nil || q != 1 {
		t.Fatalf("PII identity = %v, %v", q, err)
	}
}

func TestPublicDatasets(t *testing.T) {
	if n := len(dbdc.DatasetA(1000, 1).Points); n != 1000 {
		t.Errorf("A: %d", n)
	}
	if n := len(dbdc.DatasetB(1).Points); n != 4000 {
		t.Errorf("B: %d", n)
	}
	if n := len(dbdc.DatasetC(1).Points); n != 1021 {
		t.Errorf("C: %d", n)
	}
}

func TestPublicIncremental(t *testing.T) {
	inc, err := dbdc.NewIncremental(dbdc.Params{Eps: 1, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []dbdc.Point{{0, 0}, {0.5, 0}, {0.25, 0.5}} {
		if _, err := inc.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if inc.NumClusters() != 1 {
		t.Fatalf("clusters = %d", inc.NumClusters())
	}
}

// nopUploader is a stream uploader no test row reaches.
type nopUploader struct{}

func (nopUploader) Upload(*dbdc.LocalModel, *dbdc.LocalDelta, *dbdc.StreamStats) (*dbdc.StreamUploadResult, error) {
	return nil, errors.New("nopUploader: not reached")
}

// TestPublicNonFiniteEps: every entry point that takes an ε accepts the
// finite one of data set C and refuses a NaN in its place. A NaN Eps used to
// label all 1 021 points noise, and a NaN Eps_global to give every
// representative a global cluster of its own.
func TestPublicNonFiniteEps(t *testing.T) {
	ds := dbdc.DatasetC(1)
	good := dbdc.Config{Local: ds.Params}
	out, err := dbdc.LocalStep("c", ds.Points, good)
	if err != nil {
		t.Fatal(err)
	}
	models := []*dbdc.LocalModel{out.Model}
	sites := []dbdc.Site{{ID: "c", Points: ds.Points}}
	nanEps := func(c *dbdc.Config) { c.Local.Eps = math.NaN() }
	nanEpsGlobal := func(c *dbdc.Config) { c.EpsGlobal = math.NaN() }
	type row struct {
		name  string
		spoil func(c *dbdc.Config)
		call  func(c dbdc.Config) error
	}
	run := func(c dbdc.Config) error { _, err := dbdc.Run(sites, c); return err }
	rows := []row{
		{"Run/Eps", nanEps, run},
		{"Run/EpsGlobal", nanEpsGlobal, run},
		{"LocalStep/Eps", nanEps, func(c dbdc.Config) error { _, err := dbdc.LocalStep("c", ds.Points, c); return err }},
		{"GlobalStep/EpsGlobal", nanEpsGlobal, func(c dbdc.Config) error { _, err := dbdc.GlobalStep(models, c); return err }},
		{"NewOpticsOrderer/EpsGlobal", nanEpsGlobal, func(c dbdc.Config) error { _, err := dbdc.NewOpticsOrderer(models, c, 0); return err }},
		{"Cluster/Eps", nanEps, func(c dbdc.Config) error { _, err := dbdc.Cluster(ds.Points, c.Local); return err }},
		{"NewIncremental/Eps", nanEps, func(c dbdc.Config) error { _, err := dbdc.NewIncremental(c.Local); return err }},
		{"NewStreamSite/Eps", nanEps, func(c dbdc.Config) error {
			_, err := dbdc.NewStreamSite(dbdc.StreamConfig{SiteID: "s", Cluster: c, Window: 64}, nopUploader{})
			return err
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if err := r.call(good); err != nil {
				t.Fatalf("finite ε rejected: %v", err)
			}
			bad := good
			r.spoil(&bad)
			if err := r.call(bad); err == nil {
				t.Fatal("NaN ε accepted")
			}
		})
	}
}

func TestPublicPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p, err := dbdc.PartitionRandom(100, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSites() != 4 {
		t.Fatalf("sites = %d", p.NumSites())
	}
	pts := testBlob(rng, 0, 0, 3, 100)
	sp, err := dbdc.PartitionSpatial(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(100); err != nil {
		t.Fatal(err)
	}
}

func TestPublicTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := dbdc.Config{Local: dbdc.Params{Eps: 0.5, MinPts: 5}}
	srv, err := dbdc.NewServer("127.0.0.1:0", 1, cfg, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan error, 1)
	go func() {
		_, err := srv.RunRound()
		done <- err
	}()
	rep, err := dbdc.RunSite(srv.Addr(), "solo", testBlob(rng, 0, 0, 0.3, 200), cfg, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Global.NumClusters != 1 {
		t.Fatalf("clusters = %d", rep.Global.NumClusters)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
