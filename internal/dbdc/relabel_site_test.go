package dbdc

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
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

// checkRelabelSite holds RelabelSite on one outcome to the rule by brute
// force: every object's label is scanLabel's, a loop over every
// representative, and the RelabelStats are counts recomputed from the site's
// own clustering and the model's representatives.
func checkRelabelSite(t *testing.T, o *LocalOutcome, global *model.GlobalModel) (cluster.Labeling, RelabelStats) {
	t.Helper()
	name := o.SiteID
	got, stats, err := RelabelSite(o, global)
	if err != nil {
		t.Fatalf("%s: RelabelSite: %v", name, err)
	}
	if len(got) != len(o.Points) {
		t.Fatalf("%s: RelabelSite returned %d labels for %d objects", name, len(got), len(o.Points))
	}
	var want RelabelStats
	for i, p := range o.Points {
		if oracle := scanLabel(global, p); got[i] != oracle {
			t.Fatalf("%s: object %d at %v: RelabelSite says %v, a scan over every representative %v", name, i, p, got[i], oracle)
		}
		if o.Clustering.Labels[i] == cluster.Noise && got[i] != cluster.Noise {
			want.NoiseAdopted++
		}
	}
	// A local cluster is merged once for every global cluster it shares with
	// another local cluster of the site: count the distinct (global, local)
	// pairs of the site's representatives, run by run of one global cluster.
	type pair struct{ global, local cluster.ID }
	var pairs []pair
	for _, r := range global.Reps {
		if r.SiteID == o.SiteID {
			pairs = append(pairs, pair{r.GlobalCluster, r.LocalCluster})
		}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		return cmp.Or(cmp.Compare(a.global, b.global), cmp.Compare(a.local, b.local))
	})
	pairs = slices.Compact(pairs)
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].global == pairs[i].global {
			j++
		}
		if j-i > 1 {
			want.LocalClustersMerged += j - i
		}
		i = j
	}
	if stats != want {
		t.Fatalf("%s: RelabelSite reports %+v, recounted %+v", name, stats, want)
	}
	return got, stats
}

// roundOutcomes runs steps 1–3 over a two-site round-robin split of pts.
func roundOutcomes(t testing.TB, pts []geom.Point, cfg Config) ([]*LocalOutcome, *model.GlobalModel) {
	t.Helper()
	part, err := data.PartitionRoundRobin(len(pts), 2)
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []*LocalOutcome
	var models []*model.LocalModel
	for s, sitePts := range part.Extract(pts) {
		o, err := LocalStep(fmt.Sprintf("site-%d", s), sitePts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, o)
		models = append(models, o.Model)
	}
	global, err := GlobalStep(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return outcomes, global
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

// TestRelabelSiteMatchesPerPoint holds step 4 of a site to the rule by brute
// force on data sets A, B and C, on budgeted REP_kMeans models whose ε_r
// spread wide, on a condensed outcome, on the models the rule treats
// specially, on hand-placed models over a lattice site, and on real rounds in
// 3 and 8 dimensions. Each row is a subtest of its own.
func TestRelabelSiteMatchesPerPoint(t *testing.T) {
	for _, ds := range data.ABC(1) {
		t.Run(ds.Name, func(t *testing.T) {
			for _, budget := range []int{0, 4, 16} {
				t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
					cfg := Config{Local: ds.Params, RepBudget: budget}
					if budget > 0 {
						// A budget alone leaves every ε_r in [Eps, 2·Eps]; a
						// few k-means centroids answering for whole clusters
						// is what spreads the radii.
						cfg.Model = model.RepKMeans
					}
					outcomes, global := roundOutcomes(t, ds.Points, cfg)
					adopted := 0
					for _, o := range outcomes {
						labels, _ := checkRelabelSite(t, o, global)
						for _, l := range labels {
							if l != cluster.Noise {
								adopted++
							}
						}
					}
					if adopted == 0 {
						t.Fatal("every object is noise; the comparison is vacuous")
					}
					if budget == 4 {
						lo, hi := math.Inf(1), 0.0
						for _, r := range global.Reps {
							lo, hi = math.Min(lo, r.Eps), math.Max(hi, r.Eps)
						}
						if hi < 1.5*lo || hi < 2*ds.Params.Eps {
							t.Fatalf("ε_r spans only %.3g–%.3g at Eps %.3g; the budgeted case wants a wide spread", lo, hi, ds.Params.Eps)
						}
					}
				})
			}
		})
	}

	ds := data.DatasetC(1)
	cfg := Config{Local: ds.Params}
	outcomes, global := roundOutcomes(t, ds.Points, cfg)
	site := outcomes[0]

	// An aggregator's condensed outcome clusters representatives; it is
	// relabeled against its parent's model.
	agg, err := CondenseGlobal("agg", global, cfg)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := GlobalStep([]*model.LocalModel{agg.Model}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("condensed", func(t *testing.T) {
		checkRelabelSite(t, agg, parent)
	})

	// The empty model: every object noise, no error.
	t.Run("empty-model", func(t *testing.T) {
		labels, _ := checkRelabelSite(t, site, &model.GlobalModel{MinPtsGlobal: 2})
		for i, l := range labels {
			if l != cluster.Noise {
				t.Fatalf("object %d labelled %v", i, l)
			}
		}
	})

	// Radii Validate would refuse still mean what d² ≤ ε_r² makes of them.
	for _, eps := range []float64{math.NaN(), -1, 0, math.Inf(1)} {
		t.Run(fmt.Sprintf("eps_r=%v", eps), func(t *testing.T) {
			hostile := *global
			hostile.Reps = append([]model.GlobalRepresentative(nil), global.Reps...)
			hostile.Reps[len(hostile.Reps)/2].Eps = eps
			checkRelabelSite(t, site, &hostile)
		})
	}

	// Representatives of mixed dimensionality: Relabel's error, word for
	// word, and no labeling.
	t.Run("mixed-dimensions", func(t *testing.T) {
		mixed := *global
		mixed.Reps = append(append([]model.GlobalRepresentative(nil), global.Reps...), model.GlobalRepresentative{
			Representative: model.Representative{Point: geom.Point{1, 2, 3}, Eps: 1},
			SiteID:         "site-0",
		})
		_, wantErr := Relabel(site.Points, &mixed)
		gotLabels, _, gotErr := RelabelSite(site, &mixed)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("RelabelSite error %v, Relabel error %v", gotErr, wantErr)
		}
		if want := fmt.Sprintf("relabel: indexing %d global representatives: representative %d has dimension 3",
			len(mixed.Reps), len(mixed.Reps)-1); !strings.Contains(gotErr.Error(), want) {
			t.Fatalf("error %q does not name the representative (%q)", gotErr, want)
		}
		if gotLabels != nil {
			t.Fatalf("failed RelabelSite still returned a labeling")
		}
	})

	// A model whose representatives all come from the other site.
	t.Run("other-site", func(t *testing.T) {
		other, err := GlobalStep([]*model.LocalModel{outcomes[1].Model}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if labels, _ := checkRelabelSite(t, site, other); labels.NumNoise() == len(labels) {
			t.Fatal("nothing adopted; the comparison is vacuous")
		}
	})

	// A 20 × 20 lattice site under hand-placed representatives of two global
	// clusters, their balls overlapping, and then of one: covered and
	// uncovered objects both times. The representatives are the site's own,
	// of four local clusters, so the merge count has something to count.
	var lattice []geom.Point
	for x := 0; x < 20; x++ {
		for y := 0; y < 20; y++ {
			lattice = append(lattice, geom.Point{float64(x), float64(y)})
		}
	}
	grid, err := LocalStep("site-0", lattice, Config{Local: dbscan.Params{Eps: 1, MinPts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	hand := &model.GlobalModel{MinPtsGlobal: 2, Reps: []model.GlobalRepresentative{
		rep(1, 1.2, 2, 2), rep(2, 2.5, 3, 3.5), rep(1, 0.5, 9, 9), rep(2, 1.2, 10, 9.5), rep(1, 3, 17, 4), rep(1, 1, 16.5, 4),
	}}
	for i := range hand.Reps {
		hand.Reps[i].SiteID, hand.Reps[i].LocalCluster = grid.SiteID, cluster.ID(i%4)
	}
	for _, clusters := range []string{"two-clusters", "one-cluster"} {
		if clusters == "one-cluster" {
			for i := range hand.Reps {
				hand.Reps[i].GlobalCluster = 5
			}
		}
		t.Run("lattice/"+clusters, func(t *testing.T) {
			labels, stats := checkRelabelSite(t, grid, hand)
			if noise := labels.NumNoise(); noise == 0 || noise == len(labels) {
				t.Fatalf("%d of %d objects are noise; the row wants covered and uncovered ones", noise, len(labels))
			}
			if stats.LocalClustersMerged == 0 {
				t.Fatal("no local cluster merged; the row wants merges")
			}
		})
	}

	// 3-d and 8-d sites, one real round each: the grid spans two of their
	// coordinates, so every non-empty cell folds over its list.
	for _, row := range []struct {
		dim int
		eps float64
	}{{3, 0.7}, {8, 2.4}} {
		t.Run(fmt.Sprintf("%d-d", row.dim), func(t *testing.T) {
			cfg := Config{Local: dbscan.Params{Eps: row.eps, MinPts: 4}}
			outcomes, global := roundOutcomes(t, gaussians(int64(row.dim), 3000, row.dim), cfg)
			for _, o := range outcomes {
				if labels, _ := checkRelabelSite(t, o, global); labels.NumNoise() == len(labels) {
					t.Fatalf("%s: nothing adopted; the comparison is vacuous", o.SiteID)
				}
			}
		})
	}
}

// BenchmarkRelabelSite is step 4 on site 0 of a two-site round: the
// round-bulk workload's (16 000 2-d rows) and one of 16 000 8-d rows in two
// Gaussian blobs, where the coverage grid spans two of the eight coordinates.
func BenchmarkRelabelSite(b *testing.B) {
	for _, row := range []struct {
		name  string
		round func() ([]geom.Point, Config)
	}{
		{"round-bulk-site", func() ([]geom.Point, Config) {
			ds := data.RoundBulk(32000, 1)
			return ds.Points, Config{Local: ds.Params}
		}},
		{"blobs-8d-site", func() ([]geom.Point, Config) {
			return gaussians(8, 32000, 8), Config{Local: dbscan.Params{Eps: 3.5, MinPts: 4}}
		}},
	} {
		b.Run(row.name, func(b *testing.B) {
			pts, cfg := row.round()
			outcomes, global := roundOutcomes(b, pts, cfg)
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := RelabelSite(outcomes[0], global); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
