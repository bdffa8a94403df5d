package dbscan

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// budgetDataset builds a clustered point set with enough structure that
// every cluster selects several specific cores: three gaussian blobs plus
// uniform noise.
func budgetDataset(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	var pts []geom.Point
	centers := [][2]float64{{0, 0}, {6, 1}, {-4, 5}}
	for _, c := range centers {
		for i := 0; i < n; i++ {
			pts = append(pts, geom.Point{c[0] + rng.NormFloat64()*0.8, c[1] + rng.NormFloat64()*0.8})
		}
	}
	for i := 0; i < n/3; i++ {
		pts = append(pts, geom.Point{rng.Float64()*20 - 10, rng.Float64()*20 - 10})
	}
	return pts
}

func budgetRun(t *testing.T, kind index.Kind, pts []geom.Point, workers int) *Result {
	t.Helper()
	params := Params{Eps: 0.6, MinPts: 5}
	idx, err := index.Build(kind, pts, geom.Euclidean{}, params.Eps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(idx, params, Options{CollectSpecificCores: true, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBudgetScorProperties pins the selector's contract for every index
// kind, at one worker and at four:
//
//  1. per-cluster selection size ≤ B,
//  2. coverage monotonically non-decreasing in B,
//  3. permutation-invariance of the stored candidate order,
//  4. B ≥ |Scor_C| returns the unbudgeted candidate slices unchanged
//     (same objects, same order — the wire-identity precondition).
//
// Runs under -race in CI (the four-worker rows).
func TestBudgetScorProperties(t *testing.T) {
	pts := budgetDataset(42, 120)
	metric := geom.Euclidean{}
	for _, kind := range []index.Kind{
		index.KindLinear, index.KindGrid, index.KindKDTree, index.KindRStar, index.KindMTree,
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", kind, workers), func(t *testing.T) {
				res := budgetRun(t, kind, pts, workers)
				if len(res.Scor) == 0 {
					t.Fatal("dataset produced no clusters")
				}
				maxScor := 0
				for _, scor := range res.Scor {
					if len(scor) > maxScor {
						maxScor = len(scor)
					}
				}
				if maxScor < 3 {
					t.Fatalf("dataset too easy: largest Scor has %d candidates", maxScor)
				}

				prevCoverage := -1.0
				for b := 1; b <= maxScor+1; b++ {
					scor, stats := BudgetScor(pts, res, metric, b)
					// Property 1: the budget binds per cluster.
					for id, sel := range scor {
						if len(sel) > b {
							t.Fatalf("B=%d: cluster %d selected %d cores", b, id, len(sel))
						}
						if len(sel) == 0 && len(res.Scor[id]) > 0 {
							t.Fatalf("B=%d: cluster %d lost all representatives", b, id)
						}
						for _, s := range sel {
							if res.Labels[s] != id {
								t.Fatalf("B=%d: selected %d not a member of cluster %d", b, s, id)
							}
						}
					}
					if stats.Selected > stats.Candidates || stats.Dropped() < 0 {
						t.Fatalf("B=%d: inconsistent stats %+v", b, stats)
					}
					// Property 2: coverage non-decreasing in B.
					cov := stats.CoverageFraction()
					if cov < prevCoverage {
						t.Fatalf("B=%d: coverage %f dropped below B=%d's %f", b, cov, b-1, prevCoverage)
					}
					prevCoverage = cov

					// Property 3: permuting the stored candidate order must
					// not change the selection (set, order, or stats).
					perm := &Result{
						Params:      res.Params,
						Labels:      res.Labels,
						Core:        res.Core,
						Scor:        make(map[cluster.ID][]int, len(res.Scor)),
						SpecificEps: res.SpecificEps,
					}
					prng := rand.New(rand.NewSource(int64(b) * 977))
					for id, sel := range res.Scor {
						shuffled := append([]int(nil), sel...)
						prng.Shuffle(len(shuffled), func(i, j int) {
							shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
						})
						perm.Scor[id] = shuffled
					}
					permScor, permStats := BudgetScor(pts, perm, metric, b)
					if b <= maxScor { // identity path keeps the (permuted) input order by design
						for id := range scor {
							if len(res.Scor[id]) > b && !reflect.DeepEqual(scor[id], permScor[id]) {
								t.Fatalf("B=%d: cluster %d selection depends on candidate order: %v vs %v",
									b, id, scor[id], permScor[id])
							}
						}
					}
					if permStats.Covered != stats.Covered || permStats.Selected != stats.Selected {
						t.Fatalf("B=%d: stats depend on candidate order: %+v vs %+v", b, stats, permStats)
					}
				}

				// Property 4: a budget at or above every cluster's candidate
				// count is the identity — the exact slices, not copies in a
				// different order.
				for _, b := range []int{maxScor, maxScor + 7, 0} {
					scor, stats := BudgetScor(pts, res, metric, b)
					if b != 0 && b < maxScor {
						continue
					}
					for id, sel := range scor {
						if !reflect.DeepEqual(sel, res.Scor[id]) {
							t.Fatalf("B=%d: cluster %d not identical to unbudgeted: %v vs %v",
								b, id, sel, res.Scor[id])
						}
					}
					if stats.Dropped() != 0 {
						t.Fatalf("B=%d: identity budget dropped %d cores", b, stats.Dropped())
					}
				}
			})
		}
	}
}

// TestBudgetScorGreedyOptimalFirstPick pins the greedy rule on a hand-built
// clustering: with B=1 the selector must pick the candidate covering the
// most members, and exact coverage ties must break toward the lowest row
// id.
func TestBudgetScorGreedyOptimalFirstPick(t *testing.T) {
	// One line of 7 points, Eps 1.1: the middle point is in reach of
	// everything within distance ~1; crafted so point 3 (center) covers the
	// most members under its specific eps.
	pts := []geom.Point{
		{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0},
	}
	params := Params{Eps: 1.1, MinPts: 2}
	idx, err := index.Build(index.KindLinear, pts, geom.Euclidean{}, params.Eps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(idx, params, Options{CollectSpecificCores: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 1 {
		t.Fatalf("want one chain cluster, got %d", res.NumClusters())
	}
	scor, stats := BudgetScor(pts, res, geom.Euclidean{}, 1)
	sel := scor[0]
	if len(sel) != 1 {
		t.Fatalf("B=1 selected %v", sel)
	}
	// Verify the pick is a true argmax of single-representative coverage,
	// and the lowest row id among the argmaxes.
	bestCover, bestRow := -1, -1
	for _, s := range res.Scor[0] {
		cov := 0
		eps := res.SpecificEps[s]
		for m, l := range res.Labels {
			if l == 0 && (geom.Euclidean{}).Distance(pts[m], pts[s]) <= eps {
				cov++
			}
		}
		if cov > bestCover || (cov == bestCover && s < bestRow) {
			bestCover, bestRow = cov, s
		}
	}
	if sel[0] != bestRow {
		t.Fatalf("greedy first pick = %d (covers %d), argmax/lowest-row = %d (covers %d)",
			sel[0], stats.Covered, bestRow, bestCover)
	}
	if stats.Covered != bestCover {
		t.Fatalf("stats.Covered = %d, want %d", stats.Covered, bestCover)
	}
}

// TestBudgetScorEarlyStop: once every coverable member is covered, leftover
// budget must not pad the selection with zero-gain representatives.
func TestBudgetScorEarlyStop(t *testing.T) {
	pts := budgetDataset(7, 100)
	res := budgetRun(t, index.KindKDTree, pts, 1)
	maxScor := 0
	for _, scor := range res.Scor {
		if len(scor) > maxScor {
			maxScor = len(scor)
		}
	}
	if maxScor < 2 {
		t.Skip("no cluster with multiple candidates")
	}
	b := maxScor - 1 // force the greedy path on the largest cluster
	scor, stats := BudgetScor(pts, res, geom.Euclidean{}, b)
	_ = scor
	// Coverage at the early-stopped selection must equal coverage at the
	// full candidate set: stopping early may never lose members.
	_, full := BudgetScor(pts, res, geom.Euclidean{}, 0)
	if stats.Covered > full.Covered {
		t.Fatalf("budgeted coverage %d exceeds unbudgeted %d", stats.Covered, full.Covered)
	}
}
