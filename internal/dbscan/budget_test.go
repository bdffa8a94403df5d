package dbscan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

func budgetStore(t *testing.T, pts []geom.Point) *geom.Store {
	t.Helper()
	st, err := geom.FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	return st
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
	st := budgetStore(t, pts)
	for _, kind := range index.Kinds() {
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

				rank := RankScor(st, res)
				prevCoverage := -1.0
				for b := 1; b <= maxScor+1; b++ {
					scor, stats := rank.Select(b)
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
					permScor, permStats := RankScor(st, perm).Select(b)
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
					scor, stats := rank.Select(b)
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
	scor, stats := RankScor(budgetStore(t, pts), res).Select(1)
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
// budget must not pad the selection with zero-gain representatives. Every
// greedy pick covers at least one member no earlier pick covers, and a
// selection shorter than its budget covers exactly what the cluster's full
// candidate set covers.
func TestBudgetScorEarlyStop(t *testing.T) {
	pts := budgetDataset(7, 100)
	res := budgetRun(t, index.KindRStar, pts, 1)
	maxScor := 0
	for _, scor := range res.Scor {
		maxScor = max(maxScor, len(scor))
	}
	if maxScor < 2 {
		t.Fatal("no cluster with multiple candidates")
	}
	b := maxScor - 1 // force the greedy path on the largest cluster
	scor, _ := RankScor(budgetStore(t, pts), res).Select(b)
	// covered marks the members of cluster id that cores covers.
	covered := func(id cluster.ID, cores []int) map[int]bool {
		out := map[int]bool{}
		for _, s := range cores {
			eps := res.SpecificEps[s]
			for _, m := range res.Labels.Members(id) {
				if geom.SquaredEuclidean(pts[m], pts[s]) <= eps*eps {
					out[m] = true
				}
			}
		}
		return out
	}
	stopped := 0
	for id, sel := range scor {
		if len(res.Scor[id]) <= b {
			continue // identity path
		}
		for k := range sel {
			if len(covered(id, sel[:k+1])) == len(covered(id, sel[:k])) {
				t.Fatalf("cluster %d: pick %d (row %d) covers no new member", id, k, sel[k])
			}
		}
		if len(sel) < b {
			stopped++
			if got, full := len(covered(id, sel)), len(covered(id, res.Scor[id])); got != full {
				t.Fatalf("cluster %d stopped at %d of budget %d covering %d members, the full candidate set covers %d",
					id, len(sel), b, got, full)
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no cluster stopped short of its budget; the test needs one that does")
	}
}

// refBudgetScor is the brute-force reference for ScorRanking.Select: the
// same greedy selection at one budget with every (candidate, member) pair
// tested one at a time under the relabeling rule in squared space,
// dist²(m, s) ≤ ε_s².
func refBudgetScor(pts []geom.Point, res *Result, budget int) (map[cluster.ID][]int, BudgetStats) {
	covers := func(s, m int) bool {
		eps := res.SpecificEps[s]
		return geom.SquaredEuclidean(pts[m], pts[s]) <= eps*eps
	}
	stats := BudgetStats{Budget: max(budget, 0)}
	out := map[cluster.ID][]int{}
	for _, id := range res.Labels.ClusterIDs() {
		scor, members := res.Scor[id], res.Labels.Members(id)
		stats.Candidates += len(scor)
		stats.Members += len(members)
		selected := scor
		if budget > 0 && budget < len(scor) {
			cands := slices.Clone(scor)
			slices.Sort(cands)
			covered := map[int]bool{}
			selected = nil
			for len(selected) < budget {
				best, bestGain := -1, 0
				for _, s := range cands {
					gain := 0
					for _, m := range members {
						if !covered[m] && covers(s, m) {
							gain++
						}
					}
					if gain > bestGain {
						best, bestGain = s, gain
					}
				}
				if best < 0 {
					break
				}
				for _, m := range members {
					if covers(best, m) {
						covered[m] = true
					}
				}
				selected = append(selected, best)
			}
		}
		out[id] = selected
		stats.Selected += len(selected)
		for _, m := range members {
			for _, s := range selected {
				if covers(s, m) {
					stats.Covered++
					break
				}
			}
		}
	}
	return out, stats
}

// FuzzBudgetScor holds one ScorRanking's Select to refBudgetScor on
// byte-derived clusterings in 1–8 dimensions: the selection (ids and order)
// and the stats at every budget from 0 to |Scor_C|+1, and the prefix
// property a ranking stands for: below the identity budget, the selection
// at b is a prefix of the selection at any larger b.
//
// Input layout: dimension, point count, then per point a label byte (0–2 a
// cluster, 3 noise), one byte per coordinate (integers in [-8, 8)) and a
// candidate byte. A candidate's ε_s is either a quarter-step radius or its
// exact distance to one member of its cluster, so members sit on the
// boundary of ε_s — with integer coordinates the squared comparison is an
// exact tie whenever that distance is an integer.
func FuzzBudgetScor(f *testing.F) {
	// 1-d: every distance is an integer, every boundary an exact tie.
	// Rows x = 0, 1, 2, 4, 5 in cluster 0 (ε_s reaching x = 1, 2, 5, a
	// quarter, nothing) and one noise row.
	f.Add([]byte{0, 5, 0, 8, 0b111, 0, 9, 0b1011, 0, 10, 0b10011, 0, 12, 0b101, 0, 13, 0b1, 3, 0, 0})
	// 1-d, two clusters and noise.
	f.Add([]byte{0, 6, 0, 8, 0b1111, 0, 9, 0b11, 0, 11, 0b111, 1, 1, 0b111, 1, 2, 0b11, 1, 4, 0b1011, 3, 0, 0})
	// 2-d 3-4-5 triangles: squared distance 25 against ε_s = 5.
	f.Add([]byte{1, 4, 0, 8, 8, 0b111, 0, 11, 12, 0b11, 0, 11, 8, 0b10011, 0, 8, 12, 0b1011, 0, 14, 8, 0})
	// 4-d and 8-d rows.
	f.Add([]byte{3, 8, 0, 1, 2, 3, 4, 0b111, 0, 2, 3, 4, 5, 0b1011, 0, 1, 1, 1, 1, 0b11, 1, 9, 9, 9, 9, 0b11,
		1, 10, 9, 9, 9, 0b101, 0, 3, 3, 3, 3, 0b10001, 2, 0, 0, 0, 0, 0b1, 0, 2, 2, 2, 2, 0b110011, 1, 9, 10, 9, 9, 0b1})
	f.Add([]byte{7, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0b111, 0, 2, 2, 3, 4, 5, 6, 7, 8, 0b11, 0, 1, 2, 3, 4, 5, 6, 7, 9, 0b1011, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		dim, n := 1+int(next()%8), 1+int(next()%24)
		pts := make([]geom.Point, n)
		labels := make(cluster.Labeling, n)
		flags := make([]byte, n)
		for i := range pts {
			if labels[i] = cluster.ID(next() % 4); labels[i] == 3 {
				labels[i] = cluster.Noise
			}
			pts[i] = make(geom.Point, dim)
			for d := range pts[i] {
				pts[i][d] = float64(int(next()%16) - 8)
			}
			flags[i] = next()
		}
		res := &Result{Labels: labels, Scor: map[cluster.ID][]int{}, SpecificEps: map[int]float64{}}
		for i, c := range flags {
			if labels[i] < 0 || c&1 == 0 {
				continue
			}
			res.Scor[labels[i]] = append(res.Scor[labels[i]], i)
			res.SpecificEps[i] = float64(c>>2) / 4
			if c&2 != 0 {
				members := labels.Members(labels[i])
				m := members[int(c>>2)%len(members)]
				res.SpecificEps[i] = math.Sqrt(geom.SquaredEuclidean(pts[m], pts[i]))
			}
		}
		st, err := geom.FromPoints(pts)
		if err != nil {
			t.Fatal(err)
		}
		maxScor := 0
		for _, scor := range res.Scor {
			maxScor = max(maxScor, len(scor))
		}
		rank := RankScor(st, res)
		sels := make([]map[cluster.ID][]int, maxScor+2)
		for b := range sels {
			got, gotStats := rank.Select(b)
			want, wantStats := refBudgetScor(pts, res, b)
			if gotStats != wantStats {
				t.Fatalf("b=%d: stats %+v, reference %+v", b, gotStats, wantStats)
			}
			for _, id := range labels.ClusterIDs() {
				if !slices.Equal(got[id], want[id]) {
					t.Fatalf("b=%d: cluster %d selected %v, reference %v", b, id, got[id], want[id])
				}
			}
			sels[b] = got
		}
		for id, scor := range res.Scor {
			for b := 1; b < len(scor); b++ {
				for b2 := b + 1; b2 < len(scor); b2++ {
					if short, long := sels[b][id], sels[b2][id]; len(short) > len(long) || !slices.Equal(short, long[:len(short)]) {
						t.Fatalf("cluster %d: selection at b=%d %v is not a prefix of b=%d's %v", id, b, short, b2, long)
					}
				}
			}
		}
	})
}
