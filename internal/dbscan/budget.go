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
// st holds the clustered objects, row-aligned with res.Labels, clustered
// under the Euclidean metric.
func BudgetScor(st *geom.Store, res *Result, budget int) (map[cluster.ID][]int, BudgetStats) {
	budget = max(budget, 0)
	stats := BudgetStats{Budget: budget}
	out := make(map[cluster.ID][]int, len(res.Scor))
	// Scratch the clusters share: one marker per row, which is safe because
	// clusters are disjoint, and the coverage rows' buffer.
	covered := make([]bool, st.Len())
	var rows []int
	for _, id := range res.Labels.ClusterIDs() {
		scor := res.Scor[id]
		stats.Candidates += len(scor)
		members := res.Labels.Members(id)
		stats.Members += len(members)

		selected, n := scor, 0
		if budget == 0 || budget >= len(scor) {
			// Identity path: the original slice, original order. Its
			// coverage is the greedy cover's under no binding budget, which
			// stops only once no candidate adds a member.
			_, n, rows = greedyCover(st, res, scor, members, len(scor), covered, rows)
		} else {
			selected, n, rows = greedyCover(st, res, scor, members, budget, covered, rows)
		}
		out[id] = selected
		stats.Selected += len(selected)
		stats.Covered += n
	}
	return out, stats
}

// greedyCover runs the budgeted max-coverage selection for one cluster,
// marking the members it covers, and returns it with their number and the
// rows buffer for the next cluster. The returned sequence is the greedy
// pick order: highest marginal coverage first, row id breaking exact ties,
// stopping at the budget or when no candidate adds coverage.
func greedyCover(st *geom.Store, res *Result, scor, members []int, budget int, covered []bool, rows []int) ([]int, int, []int) {
	// Candidates in ascending row id: the scan below takes the first
	// maximum, which then is the lowest row id among ties regardless of the
	// order the clustering stored them in.
	cands := append([]int(nil), scor...)
	sort.Ints(cands)

	// Every candidate's coverage row, filled once into one flat buffer
	// (rows[off[ci]:off[ci+1]]), and its marginal gain, exact to start
	// with: nothing is covered yet. A row holds the members s covers under
	// the relabeling rule, dist(m, s) ≤ ε_s, compared in squared space on
	// the store kernels like RepSelector's, so budgeting counts exactly the
	// objects relabeling will keep.
	var row []int
	rows = rows[:0]
	off := make([]int, len(cands)+1)
	gain := make([]int, len(cands))
	for ci, s := range cands {
		eps := res.SpecificEps[s]
		row = st.VerifyRangeSq(st.Point(s), members, eps*eps, row[:0])
		rows = append(rows, row...)
		off[ci+1], gain[ci] = len(rows), len(row)
	}

	// Lazy greedy: gains only shrink as members get covered, so gain holds
	// upper bounds and only the leading candidate's is recounted. A
	// recount that confirms its bound beats every other bound, and every
	// lower row id's strictly, so it is the exact greedy pick.
	selected := make([]int, 0, budget)
	n := 0
	for len(selected) < budget {
		best := 0
		for ci, g := range gain {
			if g > gain[best] {
				best = ci
			}
		}
		if gain[best] == 0 {
			// No remaining candidate covers a new member: coverage is
			// maximal, spending more budget cannot improve it.
			break
		}
		g := 0
		for _, m := range rows[off[best]:off[best+1]] {
			if !covered[m] {
				g++
			}
		}
		if g < gain[best] {
			gain[best] = g
			continue
		}
		for _, m := range rows[off[best]:off[best+1]] {
			covered[m] = true
		}
		gain[best] = 0
		selected = append(selected, cands[best])
		n += g
	}
	return selected, n, rows
}
