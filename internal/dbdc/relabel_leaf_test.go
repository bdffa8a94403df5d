package dbdc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
)

// rep is a hand-placed representative of a hand-made global model.
func rep(id cluster.ID, eps float64, coords ...float64) model.GlobalRepresentative {
	return model.GlobalRepresentative{
		Representative: model.Representative{Point: geom.Point(coords), Eps: eps},
		SiteID:         "elsewhere",
		GlobalCluster:  id,
	}
}

// leafClusters reports, for an outcome whose index offers leaves, how many
// leaves are in reach of exactly one global cluster and of several — which arm
// of relabelByLeaf each takes — and Σ over representatives of the objects in
// the leaves their ball reaches: the distances a leaf-blind resolution of the
// same pairs would evaluate.
func leafClusters(t testing.TB, o *LocalOutcome, global *model.GlobalModel) (one, several, pairObjects int) {
	t.Helper()
	_, leaves := index.LeavesOf(o.idx)
	if leaves == 0 {
		t.Fatalf("%s: the index offers no leaves; relabelByLeaf is not under test", o.SiteID)
	}
	lv := o.idx.(index.UnseenRangeAppender)
	seen := make([]map[cluster.ID]bool, leaves)
	var reached []int
	for _, r := range global.Reps {
		reached = lv.LeavesInReach(r.Point, r.Eps, reached[:0])
		for _, l := range reached {
			if seen[l] == nil {
				seen[l] = map[cluster.ID]bool{}
			}
			seen[l][r.GlobalCluster] = true
			pairObjects += len(lv.Leaf(l))
		}
	}
	for _, s := range seen {
		switch {
		case len(s) == 1:
			one++
		case len(s) > 1:
			several++
		}
	}
	return one, several, pairObjects
}

// localOutcome clusters pts as one site; eps only has to be positive, the rows
// below bring their own global models.
func localOutcome(t testing.TB, pts []geom.Point, kind index.Kind) *LocalOutcome {
	t.Helper()
	o, err := LocalStep("site-0", pts, Config{Local: dbscan.Params{Eps: 1, MinPts: 3}, Index: kind})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// gaussians draws n dim-d points around two centres 8 apart on every axis.
func gaussians(seed int64, n, dim int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = make(geom.Point, dim)
		for d := range pts[i] {
			pts[i][d] = float64(i%2)*8 + rng.NormFloat64()
		}
	}
	return pts
}

// relabelByLeafRows are the rows of TestRelabelSiteMatchesPerPoint — whose
// R*-tree rows, the budgeted ones with their wide ε_r spread included, all
// resolve leaf by leaf — where a leaf-wise resolution could differ from the
// per-point rule, and the ones that must not take it.
func relabelByLeafRows(t *testing.T) {
	var line, grid []geom.Point
	for k := -40; k <= 40; k++ {
		line = append(line, geom.Point{float64(k) / 2, 0})
	}
	for x := 0; x < 20; x++ {
		for y := 0; y < 20; y++ {
			grid = append(grid, geom.Point{float64(x), float64(y)})
		}
	}

	// Two representatives of different clusters at bitwise-equal distance from
	// the object at the origin, in one leaf's reach: the lower index in Reps
	// wins, whichever cluster that is.
	o := localOutcome(t, line, index.KindRStar)
	for _, reps := range [][]model.GlobalRepresentative{
		{rep(7, 1.5, -1, 0), rep(3, 1.5, 1, 0)},
		{rep(3, 1.5, 1, 0), rep(7, 1.5, -1, 0)},
	} {
		global := &model.GlobalModel{Reps: reps, MinPtsGlobal: 2}
		if _, several, _ := leafClusters(t, o, global); several == 0 {
			t.Fatal("tie: no leaf is in reach of both clusters")
		}
		labels := checkRelabelPaths(t, "tie", o, global)
		if origin := 40; labels[origin] != reps[0].GlobalCluster || labels[origin-3] != 7 || labels[origin+3] != 3 {
			t.Fatalf("tie: origin %v (first of Reps is %v), left %v, right %v",
				labels[origin], reps[0].GlobalCluster, labels[origin-3], labels[origin+3])
		}
	}

	// Leaves in reach of two clusters beside leaves in reach of one, and
	// uncovered objects inside both kinds.
	o = localOutcome(t, grid, index.KindRStar)
	global := &model.GlobalModel{MinPtsGlobal: 2, Reps: []model.GlobalRepresentative{
		rep(1, 1.2, 2, 2), rep(2, 2.5, 3, 3.5), rep(1, 0.5, 9, 9), rep(2, 1.2, 10, 9.5), rep(1, 3, 17, 4), rep(1, 1, 16.5, 4),
	}}
	one, several, _ := leafClusters(t, o, global)
	if one == 0 || several == 0 {
		t.Fatalf("grid: %d leaves in reach of one cluster, %d of several; the row wants both", one, several)
	}
	labels := checkRelabelPaths(t, "grid", o, global)
	if noise := labels.NumNoise(); noise == 0 || noise == len(labels) {
		t.Fatalf("grid: %d of %d objects are noise; the row wants covered and uncovered ones", noise, len(labels))
	}

	// One cluster only, most objects out of every representative's range.
	for i := range global.Reps {
		global.Reps[i].GlobalCluster = 5
	}
	if _, several, _ := leafClusters(t, o, global); several != 0 {
		t.Fatalf("one cluster: %d leaves see several", several)
	}
	labels = checkRelabelPaths(t, "one-cluster", o, global)
	if noise := labels.NumNoise(); noise == 0 || noise == len(labels) {
		t.Fatalf("one cluster: %d of %d objects are noise", noise, len(labels))
	}

	// A model whose representatives all come from the other site.
	ds := data.DatasetC(1)
	outcomes, _ := roundOutcomes(t, ds.Points, Config{Local: ds.Params})
	other, err := GlobalStep([]*model.LocalModel{outcomes[1].Model}, Config{Local: ds.Params})
	if err != nil {
		t.Fatal(err)
	}
	leafClusters(t, outcomes[0], other)
	if labels := checkRelabelPaths(t, "other-site", outcomes[0], other); labels.NumNoise() == len(labels) {
		t.Fatal("other site: nothing adopted; the comparison is vacuous")
	}

	// 3-d and 8-d sites, one real round each.
	for dim, eps := range map[int]float64{3: 0.7, 8: 2.4} {
		cfg := Config{Local: dbscan.Params{Eps: eps, MinPts: 4}}
		outcomes, global := roundOutcomes(t, gaussians(int64(dim), 3000, dim), cfg)
		for _, o := range outcomes {
			leafClusters(t, o, global)
			if labels := checkRelabelPaths(t, fmt.Sprintf("%d-d/%s", dim, o.SiteID), o, global); labels.NumNoise() == len(labels) {
				t.Fatalf("%d-d: nothing adopted; the comparison is vacuous", dim)
			}
		}
	}

	// No leaves on offer — a tree of one leaf, a kd-tree — is relabelByRep's.
	global.Reps[1].GlobalCluster = 2
	for name, o := range map[string]*LocalOutcome{
		"one-leaf": localOutcome(t, grid[:32], index.KindRStar),
		"kd-tree":  localOutcome(t, grid, index.KindKDTree),
	} {
		if _, leaves := index.LeavesOf(o.idx); leaves != 0 || index.StoreOf(o.idx) == nil {
			t.Fatalf("%s: %d leaves on offer, store %v", name, leaves, index.StoreOf(o.idx))
		}
		if labels := checkRelabelPaths(t, name, o, global); labels.NumNoise() == len(labels) {
			t.Fatalf("%s: nothing adopted", name)
		}
	}

	// Representatives of another dimensionality than the site go to the
	// per-point path, which is not defined on them: whatever it does —
	// today it reads out of range — RelabelSite does too.
	try := func(f func() (cluster.Labeling, error)) (labels cluster.Labeling, err error, panicked bool) {
		defer func() { panicked = recover() != nil }()
		labels, err = f()
		return labels, err, false
	}
	o = localOutcome(t, grid, index.KindRStar)
	for _, r := range []model.GlobalRepresentative{rep(1, 2, 3, 3, 3), rep(1, 2, 3)} {
		global := &model.GlobalModel{MinPtsGlobal: 2, Reps: []model.GlobalRepresentative{r}}
		want, wantErr, wantPanic := try(func() (cluster.Labeling, error) { return Relabel(o.Points, global) })
		got, gotErr, gotPanic := try(func() (cluster.Labeling, error) {
			labels, _, err := RelabelSite(o, global)
			return labels, err
		})
		if gotPanic != wantPanic || (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-d representative: RelabelSite %v, %v, panic %v; Relabel %v, %v, panic %v",
				r.Point.Dim(), got, gotErr, gotPanic, want, wantErr, wantPanic)
		}
	}
}

// FuzzRelabelSite derives a lattice site (2 or 3 dimensions, duplicates and
// ties everywhere) and up to eight representatives on the half-lattice, each
// with its own ε_r in [0.25, 4] and one of three cluster ids, from the fuzzed
// bytes, and holds RelabelSite over the default R*-tree to Relabel.
func FuzzRelabelSite(f *testing.F) {
	seed := []byte{0, 3, 4, 4, 5, 0, 5, 4, 5, 1, 20, 20, 11, 2}
	for i := 0; i < 2*150; i++ {
		seed = append(seed, byte(i*37))
	}
	f.Add(seed)
	f.Add(append([]byte{1, 7, 2, 2, 2, 15, 0, 3, 3, 3, 15, 1}, seed...))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		dim, k := 2+int(in[0])%2, 1+int(in[1])%8
		in = in[2:]
		if len(in) < k*(dim+2)+dim {
			return
		}
		global := &model.GlobalModel{MinPtsGlobal: 2}
		for ; k > 0; k, in = k-1, in[dim+2:] {
			coords := make([]float64, dim)
			for d := range coords {
				coords[d] = float64(in[d]%32) / 2
			}
			global.Reps = append(global.Reps, rep(cluster.ID(in[dim+1]%3), float64(in[dim]%16+1)/4, coords...))
		}
		pts := make([]geom.Point, min(len(in)/dim, 300))
		for i := range pts {
			pts[i] = make(geom.Point, dim)
			for d := range pts[i] {
				pts[i][d] = float64(in[i*dim+d] % 16)
			}
		}
		o := localOutcome(t, pts, index.KindRStar)
		got, _, err := RelabelSite(o, global)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Relabel(pts, global)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("object %d at %v: RelabelSite says %v, Relabel %v (reps %v)", i, pts[i], got[i], want[i], global.Reps)
			}
		}
	})
}

// roundBulkRound is steps 1–3 of the benchmark's round-bulk workload: 32 000
// points dealt round-robin to two sites.
func roundBulkRound(t testing.TB, kind index.Kind) ([]*LocalOutcome, *model.GlobalModel) {
	t.Helper()
	ds := data.RoundBulk(32000, 1)
	return roundOutcomes(t, ds.Points, Config{Local: ds.Params, Index: kind})
}

// TestRelabelWorkIsPinned pins the work, not the time: on a 16 000-row site of
// the round-bulk workload relabelByLeaf evaluates at most a quarter of the
// distances that resolving the same (representative, leaf) pairs object by
// object would (16% when this was written; all but a few dozen of the ≈ 500
// leaves are in reach of one global cluster), and the labels are Relabel's.
func TestRelabelWorkIsPinned(t *testing.T) {
	outcomes, global := roundBulkRound(t, index.KindRStar)
	for _, o := range outcomes {
		one, several, pairObjects := leafClusters(t, o, global)
		labels, evals, err := relabelOutcome(o, global)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d leaves in reach of one cluster, %d of several; %d distances of %d", o.SiteID, one, several, evals, pairObjects)
		if one < 10*several || evals == 0 || 4*evals > pairObjects {
			t.Errorf("%s: %d distances evaluated, a quarter of the pairs' %d objects is the limit (%d leaves see one cluster, %d several)",
				o.SiteID, evals, pairObjects, one, several)
		}
		if want, err := Relabel(o.Points, global); err != nil || !reflect.DeepEqual(labels, want) {
			t.Errorf("%s: labels differ from Relabel's (error %v)", o.SiteID, err)
		}
	}
}

// BenchmarkRelabelSite is step 4 on site 0 of the round-bulk workload, leaf by
// leaf over the default R*-tree and by one range query per representative over
// a kd-tree: ns/op and the object–representative distances evaluated.
func BenchmarkRelabelSite(b *testing.B) {
	for _, kind := range []index.Kind{index.KindRStar, index.KindKDTree} {
		b.Run(string(kind)+"/round-bulk-site", func(b *testing.B) {
			outcomes, global := roundBulkRound(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := RelabelSite(outcomes[0], global); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_, evals, _ := relabelOutcome(outcomes[0], global)
			b.ReportMetric(float64(evals), "dist-evals/op")
		})
	}
}
