package model

import (
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
)

func globalFromClusters(clusters map[cluster.ID][]geom.Point) *GlobalModel {
	g := &GlobalModel{EpsGlobal: 0.6, MinPtsGlobal: 2}
	seen := make(map[cluster.ID]bool)
	for id, pts := range clusters {
		seen[id] = true
		for _, p := range pts {
			g.Reps = append(g.Reps, GlobalRepresentative{
				Representative: Representative{Point: p, Eps: 0.3, LocalCluster: 0},
				SiteID:         "s1",
				GlobalCluster:  id,
			})
		}
	}
	g.NumClusters = len(seen)
	return g
}

func stableIDOf(g *GlobalModel, p geom.Point) (cluster.ID, bool) {
	for _, r := range g.Reps {
		if r.Point.Equal(p) {
			return r.GlobalCluster, true
		}
	}
	return 0, false
}

// A cluster that keeps a majority of its representatives keeps its id even
// when the re-clustering renumbers everything.
func TestMatcherStableUnderRenumbering(t *testing.T) {
	m := NewClusterMatcher()
	a := []geom.Point{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	b := []geom.Point{{9, 9}, {9, 8}, {8, 9}}
	v1 := globalFromClusters(map[cluster.ID][]geom.Point{0: a, 1: b})
	m.RelabelGlobal(v1)
	idA, _ := stableIDOf(v1, a[0])
	idB, _ := stableIDOf(v1, b[0])
	if idA == idB {
		t.Fatal("distinct clusters share a stable id")
	}
	// Version 2: raw ids swapped, one rep of each churned out, one new.
	v2 := globalFromClusters(map[cluster.ID][]geom.Point{
		1: {a[1], a[2], a[3], {0.5, 0.5}},
		0: {b[1], b[2]},
	})
	m.RelabelGlobal(v2)
	if err := v2.Validate(); err != nil {
		t.Fatalf("relabeled model invalid: %v", err)
	}
	if got, _ := stableIDOf(v2, a[1]); got != idA {
		t.Fatalf("cluster A renamed %d → %d despite 3/4 overlap", idA, got)
	}
	if got, _ := stableIDOf(v2, b[1]); got != idB {
		t.Fatalf("cluster B renamed %d → %d despite 2/3 overlap", idB, got)
	}
	if got, _ := stableIDOf(v2, geom.Point{0.5, 0.5}); got != idA {
		t.Fatal("new rep of cluster A got a different id than its cluster")
	}
}

// A brand-new cluster must get a fresh id, never a retired one.
func TestMatcherFreshIDsNeverReused(t *testing.T) {
	m := NewClusterMatcher()
	a := []geom.Point{{0, 0}, {0, 1}}
	v1 := globalFromClusters(map[cluster.ID][]geom.Point{0: a})
	m.RelabelGlobal(v1)
	idA, _ := stableIDOf(v1, a[0])
	// A dies; B appears.
	b := []geom.Point{{5, 5}, {5, 6}}
	v2 := globalFromClusters(map[cluster.ID][]geom.Point{0: b})
	m.RelabelGlobal(v2)
	idB, _ := stableIDOf(v2, b[0])
	if idB == idA {
		t.Fatalf("retired id %d reused for an unrelated cluster", idA)
	}
	// A's points return: no history survives for them (B holds the map
	// now), so they must again get a fresh id, not B's.
	v3 := globalFromClusters(map[cluster.ID][]geom.Point{0: b, 1: a})
	m.RelabelGlobal(v3)
	id3A, _ := stableIDOf(v3, a[0])
	id3B, _ := stableIDOf(v3, b[0])
	if id3B != idB {
		t.Fatalf("persisting cluster B renamed %d → %d", idB, id3B)
	}
	if id3A == idB {
		t.Fatal("returning cluster stole B's id")
	}
}

// A split: the larger half keeps the id, the smaller half gets a fresh one.
func TestMatcherSplitKeepsIDOnLargerHalf(t *testing.T) {
	m := NewClusterMatcher()
	pts := []geom.Point{{0, 0}, {0, 1}, {0, 2}, {10, 0}, {10, 1}}
	v1 := globalFromClusters(map[cluster.ID][]geom.Point{0: pts})
	m.RelabelGlobal(v1)
	orig, _ := stableIDOf(v1, pts[0])
	v2 := globalFromClusters(map[cluster.ID][]geom.Point{
		3: {pts[0], pts[1], pts[2]},
		7: {pts[3], pts[4]},
	})
	m.RelabelGlobal(v2)
	big, _ := stableIDOf(v2, pts[0])
	small, _ := stableIDOf(v2, pts[3])
	if big != orig {
		t.Fatalf("larger split half lost the id: %d → %d", orig, big)
	}
	if small == orig {
		t.Fatal("both split halves kept the id")
	}
}

// Local relabeling is a bijection on the ids present, so NumClusters and
// the partition structure are preserved while retained reps stay
// byte-stable across versions.
func TestMatcherLocalKeepsRetainedRepsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewClusterMatcher()
	lm := randomLocalModel(rng, "s", 3)
	m.RelabelLocal(lm)
	if err := lm.Validate(); err != nil {
		t.Fatal(err)
	}
	// Renumber the clusters the way a fresh batch run would, keeping the
	// same partition: ids 0,1,2 → 2,0,1.
	perm := map[cluster.ID]cluster.ID{0: 2, 1: 0, 2: 1}
	next := &LocalModel{SiteID: lm.SiteID, Kind: lm.Kind, EpsLocal: lm.EpsLocal,
		MinPts: lm.MinPts, NumObjects: lm.NumObjects, NumClusters: lm.NumClusters}
	for _, r := range lm.Reps {
		r.LocalCluster = perm[r.LocalCluster]
		next.Reps = append(next.Reps, r)
	}
	m.RelabelLocal(next)
	if next.NumClusters != lm.NumClusters {
		t.Fatalf("NumClusters changed: %d → %d", lm.NumClusters, next.NumClusters)
	}
	for i := range next.Reps {
		if next.Reps[i].LocalCluster != lm.Reps[i].LocalCluster {
			t.Fatalf("rep %d drifted from stable id %d to %d despite identical partition",
				i, lm.Reps[i].LocalCluster, next.Reps[i].LocalCluster)
		}
	}
}
