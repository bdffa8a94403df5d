package incdbscan

import (
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// checkSurvivorsAgainstBatch compares the incremental state restricted to
// live objects against a batch DBSCAN run over exactly those objects.
func checkSurvivorsAgainstBatch(t *testing.T, c *Clusterer) {
	t.Helper()
	var pts []geom.Point
	var live []int
	for i := 0; i < c.Len(); i++ {
		if !c.IsDeleted(i) {
			pts = append(pts, c.Point(i))
			live = append(live, i)
		}
	}
	lin, err := index.NewLinear(pts, geom.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := dbscan.Run(lin, c.Params(), dbscan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := c.Labels()
	var incCore, batchCore cluster.Labeling
	for k, i := range live {
		if c.IsCore(i) != batch.Core[k] {
			t.Fatalf("core flag of %d: inc=%v batch=%v", i, c.IsCore(i), batch.Core[k])
		}
		if (inc[i] == cluster.Noise) != (batch.Labels[k] == cluster.Noise) {
			t.Fatalf("noise status of %d: inc=%v batch=%v", i, inc[i], batch.Labels[k])
		}
		if batch.Core[k] {
			incCore = append(incCore, inc[i])
			batchCore = append(batchCore, batch.Labels[k])
		}
	}
	if !incCore.EquivalentTo(batchCore) {
		t.Fatalf("core partitions differ after deletions")
	}
	// Border objects must touch a core of their assigned cluster.
	e := geom.Euclidean{}
	for _, i := range live {
		if inc[i] >= 0 && !c.IsCore(i) {
			ok := false
			for _, j := range live {
				if c.IsCore(j) && inc[j] == inc[i] &&
					e.Distance(c.Point(i), c.Point(j)) <= c.Params().Eps {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("border object %d unreachable from its cluster", i)
			}
		}
	}
}

func TestDeleteValidation(t *testing.T) {
	c, _ := New(dbscan.Params{Eps: 1, MinPts: 2})
	if err := c.Delete(0); err == nil {
		t.Error("delete from empty accepted")
	}
	c.Insert(geom.Point{0, 0})
	if err := c.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(0); err == nil {
		t.Error("double delete accepted")
	}
	if !c.IsDeleted(0) {
		t.Error("IsDeleted(0) = false")
	}
	if c.LiveCount() != 0 {
		t.Errorf("LiveCount = %d", c.LiveCount())
	}
}

func TestDeleteDissolvesCluster(t *testing.T) {
	c, _ := New(dbscan.Params{Eps: 1, MinPts: 3})
	ids := make([]int, 0, 3)
	for _, p := range []geom.Point{{0, 0}, {0.5, 0}, {0.25, 0.4}} {
		i, err := c.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, i)
	}
	if c.Labels().NumClusters() != 1 {
		t.Fatal("setup failed")
	}
	if err := c.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}
	labels := c.Labels()
	if labels.NumClusters() != 0 {
		t.Fatalf("cluster survived its dissolution: %v", labels)
	}
	if labels[ids[0]] != cluster.Noise || labels[ids[2]] != cluster.Noise {
		t.Fatalf("members not demoted to noise: %v", labels)
	}
}

func TestDeleteSplitsCluster(t *testing.T) {
	// Two dense clumps joined by a single bridge point: deleting the
	// bridge must split the cluster in two.
	c, _ := New(dbscan.Params{Eps: 1.1, MinPts: 3})
	left := []geom.Point{{0, 0}, {1, 0}, {0.5, 0.5}, {0.5, -0.5}}
	right := []geom.Point{{4, 0}, {5, 0}, {4.5, 0.5}, {4.5, -0.5}}
	var bridge int
	for _, p := range left {
		c.Insert(p)
	}
	for _, p := range right {
		c.Insert(p)
	}
	bridge, err := c.Insert(geom.Point{2.5, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	c.Insert(geom.Point{1.7, 0.1})
	c.Insert(geom.Point{3.3, 0.1})
	if got := c.Labels().NumClusters(); got != 1 {
		t.Fatalf("setup: want 1 bridged cluster, got %d", got)
	}
	if err := c.Delete(bridge); err != nil {
		t.Fatal(err)
	}
	if got := c.Labels().NumClusters(); got != 2 {
		t.Fatalf("after bridge deletion: want 2 clusters, got %d (%v)", got, c.Labels())
	}
	checkSurvivorsAgainstBatch(t, c)
}

func TestDeleteBorderKeepsCluster(t *testing.T) {
	c, _ := New(dbscan.Params{Eps: 1, MinPts: 4})
	for _, p := range []geom.Point{{0, 0}, {0.3, 0}, {0, 0.3}, {0.3, 0.3}} {
		c.Insert(p)
	}
	borderIdx, err := c.Insert(geom.Point{0.9, 0}) // border object
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(borderIdx); err != nil {
		t.Fatal(err)
	}
	if got := c.Labels().NumClusters(); got != 1 {
		t.Fatalf("border deletion broke the cluster: %d", got)
	}
	checkSurvivorsAgainstBatch(t, c)
}

// Property: random interleavings of insertions and deletions always match
// a batch run over the surviving objects.
func TestDeleteMatchesBatchOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4; trial++ {
		params := dbscan.Params{Eps: 0.4 + rng.Float64()*0.4, MinPts: 3 + rng.Intn(3)}
		c, err := New(params)
		if err != nil {
			t.Fatal(err)
		}
		var liveIdx []int
		steps := 250 + rng.Intn(150)
		for s := 0; s < steps; s++ {
			if len(liveIdx) > 20 && rng.Float64() < 0.35 {
				k := rng.Intn(len(liveIdx))
				victim := liveIdx[k]
				liveIdx = append(liveIdx[:k], liveIdx[k+1:]...)
				if err := c.Delete(victim); err != nil {
					t.Fatal(err)
				}
			} else {
				var p geom.Point
				if rng.Float64() < 0.8 {
					cx := []geom.Point{{0, 0}, {2.5, 2.5}, {0, 3.5}}[rng.Intn(3)]
					p = geom.Point{cx[0] + rng.NormFloat64()*0.4, cx[1] + rng.NormFloat64()*0.4}
				} else {
					p = geom.Point{rng.Float64()*7 - 2, rng.Float64()*7 - 2}
				}
				idx, err := c.Insert(p)
				if err != nil {
					t.Fatal(err)
				}
				liveIdx = append(liveIdx, idx)
			}
			if (s+1)%60 == 0 || s == steps-1 {
				checkSurvivorsAgainstBatch(t, c)
			}
		}
	}
}

func TestInsertAfterDelete(t *testing.T) {
	c, _ := New(dbscan.Params{Eps: 1, MinPts: 3})
	var ids []int
	for _, p := range []geom.Point{{0, 0}, {0.5, 0}, {0.25, 0.4}} {
		i, _ := c.Insert(p)
		ids = append(ids, i)
	}
	c.Delete(ids[0])
	if c.Labels().NumClusters() != 0 {
		t.Fatal("cluster should have dissolved")
	}
	// Reinsert a point at the same place: the cluster must come back.
	if _, err := c.Insert(geom.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	if c.Labels().NumClusters() != 1 {
		t.Fatalf("cluster did not reform: %v", c.Labels())
	}
	checkSurvivorsAgainstBatch(t, c)
}
