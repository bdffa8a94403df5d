package dbscan

import (
	"sort"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
)

// This file implements the representative budget of Scalable Density-Based
// Distributed Clustering (Januzaj, Kriegel, Pfeifle — PKDD 2004): a site
// with a constrained uplink ships at most B specific core points per local
// cluster, chosen so that the fraction of cluster members still covered by
// the transmitted representatives is maximized. Coverage uses the same rule
// the server-side relabeling applies — a representative s covers an object
// o iff dist(o, s) ≤ ε_s, the specific ε-range of s — so the objective
// optimizes exactly the quantity that decides which objects keep a global
// label after the round.

// BudgetStats is the accounting of one BudgetScor application over a whole
// clustering: how many specific cores the unbudgeted run selected, how many
// survived the budget, and what fraction of the clustered objects the
// survivors still cover.
type BudgetStats struct {
	// Budget is the per-cluster cap that was applied (0 = unbudgeted).
	Budget int
	// Candidates is the number of specific core points before budgeting,
	// Selected after; Dropped() is their difference.
	Candidates int
	Selected   int
	// Members is the number of clustered (non-noise) objects considered,
	// Covered how many of them lie within the specific ε-range of at least
	// one selected representative.
	Members int
	Covered int
}

// Dropped returns the number of specific cores the budget removed.
func (s BudgetStats) Dropped() int { return s.Candidates - s.Selected }

// CoverageFraction returns Covered/Members, 1 when no members exist (an
// empty clustering loses nothing under any budget).
func (s BudgetStats) CoverageFraction() float64 {
	if s.Members == 0 {
		return 1
	}
	return float64(s.Covered) / float64(s.Members)
}

// BudgetScor selects at most budget specific core points per cluster from
// res.Scor, greedily maximizing the number of cluster members covered
// (dist(member, s) ≤ ε_s). It returns a fresh Scor map — res itself is
// never mutated — plus the coverage accounting.
//
// Determinism: candidates are considered in ascending object (row) id, and
// every greedy round picks the candidate with the highest marginal
// coverage, exact ties breaking toward the lowest row id. The selected
// sequence is therefore invariant under any permutation of the stored
// candidate order — two runs that found the same specific core sets budget
// to identical models regardless of map iteration or upstream processing
// order. Selection stops early when no remaining candidate covers a new
// member: coverage is maximal at that point and every further
// representative would only cost uplink bytes.
//
// Identity: budget ≤ 0 and budget ≥ |Scor_C| (per cluster) return the
// original candidate slices unchanged — same objects, same order — so an
// unbudgeted (or generously budgeted) site stays byte-identical to the
// historical local model on the wire.
//
// pts are the clustered objects, index-aligned with res.Labels; metric is
// the metric the clustering ran under.
func BudgetScor(pts []geom.Point, res *Result, metric geom.Metric, budget int) (map[cluster.ID][]int, BudgetStats) {
	stats := BudgetStats{Budget: budget}
	if budget < 0 {
		budget = 0
		stats.Budget = 0
	}
	out := make(map[cluster.ID][]int, len(res.Scor))
	for _, id := range res.Labels.ClusterIDs() {
		scor := res.Scor[id]
		stats.Candidates += len(scor)
		members := res.Labels.Members(id)
		stats.Members += len(members)

		keepAll := budget == 0 || budget >= len(scor)
		var selected []int
		if keepAll {
			// Identity path: the original slice, original order. The stats
			// still need the coverage of the full candidate set.
			selected = scor
		} else {
			selected = greedyCover(pts, res, metric, scor, members, budget)
		}
		out[id] = selected
		stats.Selected += len(selected)
		stats.Covered += countCovered(pts, res, metric, selected, members)
	}
	return out, stats
}

// covers reports whether specific core s covers object m under the
// relabeling rule: dist(m, s) ≤ ε_s. Under the Euclidean metric the
// comparison runs in squared space like RepSelector's, so budgeting counts
// exactly the objects relabeling will keep.
func covers(pts []geom.Point, res *Result, metric geom.Metric, s, m int) bool {
	eps := res.SpecificEps[s]
	if _, ok := metric.(geom.Euclidean); ok {
		return geom.SquaredEuclidean(pts[m], pts[s]) <= eps*eps
	}
	return metric.Distance(pts[m], pts[s]) <= eps
}

// countCovered counts the members covered by at least one selected core.
func countCovered(pts []geom.Point, res *Result, metric geom.Metric, selected, members []int) int {
	n := 0
	for _, m := range members {
		for _, s := range selected {
			if covers(pts, res, metric, s, m) {
				n++
				break
			}
		}
	}
	return n
}

// greedyCover runs the budgeted max-coverage selection for one cluster. The
// returned sequence is the greedy pick order: highest marginal coverage
// first, row id breaking exact ties, stopping at the budget or when no
// candidate adds coverage.
func greedyCover(pts []geom.Point, res *Result, metric geom.Metric, scor, members []int, budget int) []int {
	// Candidates in ascending row id: the scan below takes the first
	// maximum, which then is the lowest row id among ties regardless of the
	// order the clustering stored them in.
	cands := append([]int(nil), scor...)
	sort.Ints(cands)

	// Precompute each candidate's coverage over the member positions; the
	// greedy rounds then only count bits instead of recomputing distances.
	coverage := make([][]int32, len(cands))
	for ci, s := range cands {
		var cov []int32
		for mi, m := range members {
			if covers(pts, res, metric, s, m) {
				cov = append(cov, int32(mi))
			}
		}
		coverage[ci] = cov
	}

	covered := make([]bool, len(members))
	used := make([]bool, len(cands))
	selected := make([]int, 0, budget)
	for len(selected) < budget {
		best, bestGain := -1, 0
		for ci := range cands {
			if used[ci] {
				continue
			}
			gain := 0
			for _, mi := range coverage[ci] {
				if !covered[mi] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = ci, gain
			}
		}
		if best < 0 {
			// No remaining candidate covers a new member: coverage is
			// maximal, spending more budget cannot improve it.
			break
		}
		used[best] = true
		for _, mi := range coverage[best] {
			covered[mi] = true
		}
		selected = append(selected, cands[best])
	}
	return selected
}
