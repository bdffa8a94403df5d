package incdbscan

import (
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// checkAgainstBatch verifies that the incremental clustering over pts is
// equivalent to a batch DBSCAN run: identical core flags, identical
// partition of the core objects, identical noise set, and every border
// object within Eps of a core object of its assigned cluster. Border
// objects reachable from several clusters may be assigned differently —
// both algorithms are order-dependent there, exactly like the original
// DBSCAN publications state.
func checkAgainstBatch(t *testing.T, c *Clusterer, pts []geom.Point) {
	t.Helper()
	params := c.Params()
	lin, err := index.Build(index.KindLinear, pts, geom.Euclidean{}, params.Eps)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := dbscan.Run(lin, params, dbscan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := c.Labels()
	if err := inc.Validate(); err != nil {
		t.Fatal(err)
	}
	e := geom.Euclidean{}
	for i := range pts {
		if c.IsCore(i) != batch.Core[i] {
			t.Fatalf("core flag of %d: inc=%v batch=%v", i, c.IsCore(i), batch.Core[i])
		}
		if (inc[i] == cluster.Noise) != (batch.Labels[i] == cluster.Noise) {
			t.Fatalf("noise status of %d: inc=%v batch=%v", i, inc[i], batch.Labels[i])
		}
	}
	var incCore, batchCore cluster.Labeling
	for i := range pts {
		if batch.Core[i] {
			incCore = append(incCore, inc[i])
			batchCore = append(batchCore, batch.Labels[i])
		}
	}
	if !incCore.EquivalentTo(batchCore) {
		t.Fatalf("core partitions differ:\ninc:   %v\nbatch: %v",
			incCore.Canonicalize(), batchCore.Canonicalize())
	}
	for i := range pts {
		if inc[i] >= 0 && !c.IsCore(i) {
			ok := false
			for j := range pts {
				if c.IsCore(j) && inc[j] == inc[i] && e.Distance(pts[i], pts[j]) <= params.Eps {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("border object %d not reachable from its cluster", i)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(dbscan.Params{Eps: 0, MinPts: 2}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestInsertValidation(t *testing.T) {
	c, _ := New(dbscan.Params{Eps: 1, MinPts: 2})
	if _, err := c.Insert(geom.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(geom.Point{0, 0, 0}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	// An emptied clusterer keeps its dimensionality, on the slot-recycling
	// path too.
	if err := c.Delete(0); err != nil {
		t.Fatal(err)
	}
	const want = "incdbscan: point dimensionality 3, clusterer has 2"
	if _, err := c.Insert(geom.Point{0, 0, 0}); err == nil || err.Error() != want {
		t.Fatalf("3-d insert into an emptied 2-d clusterer: %v, want %q", err, want)
	}
	if idx, err := c.Insert(geom.Point{1, 1}); err != nil || idx != 0 {
		t.Fatalf("2-d insert after the rejected one: slot %d, %v", idx, err)
	}
}

func TestCreationCase(t *testing.T) {
	// Insertions that first leave isolated noise, then form a cluster.
	c, _ := New(dbscan.Params{Eps: 1, MinPts: 3})
	c.Insert(geom.Point{0, 0})
	c.Insert(geom.Point{0.5, 0})
	if got := c.Labels(); got[0] != cluster.Noise || got[1] != cluster.Noise {
		t.Fatalf("premature clustering: %v", got)
	}
	c.Insert(geom.Point{0.25, 0.25})
	got := c.Labels()
	if got.NumClusters() != 1 || got.NumNoise() != 0 {
		t.Fatalf("creation failed: %v", got)
	}
}

func TestAbsorptionCase(t *testing.T) {
	c, _ := New(dbscan.Params{Eps: 1, MinPts: 3})
	for _, p := range []geom.Point{{0, 0}, {0.5, 0}, {0.25, 0.25}} {
		c.Insert(p)
	}
	// New point near the existing cluster is absorbed.
	c.Insert(geom.Point{1.0, 0})
	got := c.Labels()
	if got.NumClusters() != 1 || got[3] == cluster.Noise {
		t.Fatalf("absorption failed: %v", got)
	}
}

func TestMergeCase(t *testing.T) {
	// Two separate clusters bridged by one inserted point.
	c, _ := New(dbscan.Params{Eps: 1.1, MinPts: 3})
	left := []geom.Point{{0, 0}, {1, 0}, {0.5, 0.5}}
	right := []geom.Point{{4, 0}, {5, 0}, {4.5, 0.5}}
	for _, p := range append(append([]geom.Point{}, left...), right...) {
		c.Insert(p)
	}
	if got := c.Labels(); got.NumClusters() != 2 {
		t.Fatalf("setup: want 2 clusters, got %v", got)
	}
	c.Insert(geom.Point{2.5, 0}) // bridges: within 1.1 of {1,0}? no: 1.5. Hmm.
	// Distance from bridge to nearest members is 1.5 > Eps, so this must
	// NOT merge.
	if got := c.Labels(); got.NumClusters() != 2 {
		t.Fatalf("non-bridge merged clusters: %v", got)
	}
	// A true bridge: two points connecting the chain.
	c.Insert(geom.Point{1.8, 0})
	c.Insert(geom.Point{3.2, 0})
	got := c.Labels()
	if got.NumClusters() != 1 {
		t.Fatalf("merge failed: %v (clusters=%d)", got, got.NumClusters())
	}
	checkAgainstBatch(t, c, []geom.Point{
		{0, 0}, {1, 0}, {0.5, 0.5}, {4, 0}, {5, 0}, {4.5, 0.5}, {2.5, 0}, {1.8, 0}, {3.2, 0},
	})
}

func TestNoiseToBorderUpgrade(t *testing.T) {
	c, _ := New(dbscan.Params{Eps: 1, MinPts: 4})
	// A point that starts as noise...
	c.Insert(geom.Point{0.9, 0})
	// ...then a dense cluster grows next to it.
	c.Insert(geom.Point{0, 0})
	c.Insert(geom.Point{0.1, 0})
	c.Insert(geom.Point{0, 0.1})
	c.Insert(geom.Point{0.1, 0.1})
	got := c.Labels()
	if got[0] == cluster.Noise {
		t.Fatalf("former noise not upgraded to border: %v", got)
	}
}

// Property: for random data inserted in random order, the incremental
// clustering matches batch DBSCAN at several checkpoints.
func TestMatchesBatchOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		params := dbscan.Params{Eps: 0.4 + rng.Float64()*0.4, MinPts: 3 + rng.Intn(3)}
		c, err := New(params)
		if err != nil {
			t.Fatal(err)
		}
		var pts []geom.Point
		n := 150 + rng.Intn(150)
		for i := 0; i < n; i++ {
			var p geom.Point
			if rng.Float64() < 0.8 {
				// Clustered around one of three centers.
				cx := []geom.Point{{0, 0}, {3, 3}, {0, 4}}[rng.Intn(3)]
				p = geom.Point{cx[0] + rng.NormFloat64()*0.4, cx[1] + rng.NormFloat64()*0.4}
			} else {
				p = geom.Point{rng.Float64()*8 - 2, rng.Float64()*8 - 2}
			}
			pts = append(pts, p)
			if _, err := c.Insert(p); err != nil {
				t.Fatal(err)
			}
			if (i+1)%50 == 0 || i == n-1 {
				checkAgainstBatch(t, c, pts)
			}
		}
	}
}

// Property: the final clustering does not depend on insertion order (on the
// core partition and noise set).
func TestOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	base := make([]geom.Point, 120)
	for i := range base {
		base[i] = geom.Point{rng.Float64() * 5, rng.Float64() * 5}
	}
	params := dbscan.Params{Eps: 0.5, MinPts: 4}
	var first cluster.Labeling
	var firstCore []bool
	for perm := 0; perm < 3; perm++ {
		order := rng.Perm(len(base))
		c, _ := New(params)
		posOf := make([]int, len(base)) // object index in c per base position
		for _, bi := range order {
			idx, err := c.Insert(base[bi])
			if err != nil {
				t.Fatal(err)
			}
			posOf[bi] = idx
		}
		labels := c.Labels()
		// Rearrange into base order for comparison.
		arranged := make(cluster.Labeling, len(base))
		core := make([]bool, len(base))
		for bi := range base {
			arranged[bi] = labels[posOf[bi]]
			core[bi] = c.IsCore(posOf[bi])
		}
		if perm == 0 {
			first, firstCore = arranged, core
			continue
		}
		for i := range base {
			if core[i] != firstCore[i] {
				t.Fatalf("perm %d: core flag of %d differs", perm, i)
			}
		}
		var a, b cluster.Labeling
		for i := range base {
			if core[i] {
				a = append(a, arranged[i])
				b = append(b, first[i])
			}
		}
		if !a.EquivalentTo(b) {
			t.Fatalf("perm %d: core partition depends on insertion order", perm)
		}
	}
}

func TestLabelsNeverExposeUnclassified(t *testing.T) {
	c, _ := New(dbscan.Params{Eps: 1, MinPts: 2})
	for i := 0; i < 20; i++ {
		c.Insert(geom.Point{float64(i) * 10, 0})
	}
	for i, l := range c.Labels() {
		if l != cluster.Noise && l < 0 {
			t.Fatalf("object %d exposed invalid label %d", i, l)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c, _ := New(dbscan.Params{Eps: 0.3, MinPts: 5})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Insert(geom.Point{rng.Float64() * 50, rng.Float64() * 50}); err != nil {
			b.Fatal(err)
		}
	}
}
