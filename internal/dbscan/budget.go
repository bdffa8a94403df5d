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

// BudgetStats is the accounting of one budget over a whole clustering
// (ScorRanking.Select): how many specific cores the unbudgeted run
// selected, how many survived the budget, and what fraction of the
// clustered objects the survivors still cover.
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

// ScorRanking is the greedy coverage order of every cluster's specific
// cores (RankScor). The pick at any budget is a prefix of it, so every
// budget's selection is read off one greedy run (Select).
type ScorRanking struct {
	res *Result
	// Per cluster: the greedy pick order, and covered[id][k], the members
	// its first k picks cover.
	rank, covered map[cluster.ID][]int
	members       int
}

// RankScor ranks res.Scor for the representative budget: per cluster, the
// greedy that maximizes the members covered (dist(member, s) ≤ ε_s) runs
// once under no budget. Candidates are considered in ascending object
// (row) id, and every round picks the one with the highest marginal
// coverage, exact ties breaking toward the lowest row id, so the ranking
// is invariant under any permutation of the stored candidate order. It
// stops when no candidate covers a new member: coverage is maximal there,
// and a further representative would only cost uplink bytes. res is never
// mutated; st holds the clustered objects, row-aligned with res.Labels.
func RankScor(st *geom.Store, res *Result) *ScorRanking {
	r := &ScorRanking{res: res, rank: map[cluster.ID][]int{}, covered: map[cluster.ID][]int{}}
	// Scratch the clusters share: one marker per row, which is safe because
	// clusters are disjoint, and the coverage rows' buffer.
	covered := make([]bool, st.Len())
	var rows []int
	for id := range cluster.ID(res.NumClusters()) {
		members := res.Labels.Members(id)
		r.members += len(members)
		r.rank[id], r.covered[id], rows = greedyCover(st, res, res.Scor[id], members, covered, rows)
	}
	return r
}

// Select returns at most budget specific cores per cluster — a fresh Scor
// map, the rank prefix rank[:budget] — plus the coverage accounting.
// Identity: budget ≤ 0 and budget ≥ |Scor_C| (per cluster) return the
// original candidate slices unchanged — same objects, same order — so an
// unbudgeted (or generously budgeted) site stays byte-identical to the
// historical local model on the wire.
func (r *ScorRanking) Select(budget int) (map[cluster.ID][]int, BudgetStats) {
	budget = max(budget, 0)
	stats := BudgetStats{Budget: budget, Members: r.members}
	out := make(map[cluster.ID][]int, len(r.rank))
	for id, rank := range r.rank {
		selected, k := r.res.Scor[id], len(rank)
		stats.Candidates += len(selected)
		if budget > 0 && budget < len(selected) {
			k = min(budget, k)
			selected = rank[:k:k]
		}
		out[id] = selected
		stats.Selected += len(selected)
		stats.Covered += r.covered[id][k]
	}
	return out, stats
}

// greedyCover ranks one cluster's candidates as RankScor describes, marking
// the members it covers, and returns the pick order, the members covered
// after 0, 1, … picks and the rows buffer for the next cluster.
func greedyCover(st *geom.Store, res *Result, scor, members []int, covered []bool, rows []int) ([]int, []int, []int) {
	// Candidates in ascending row id: the scan below takes the first
	// maximum, which then is the lowest row id among ties.
	cands := append([]int(nil), scor...)
	sort.Ints(cands)

	// Every candidate's coverage row — the members s covers under the
	// relabeling rule dist(m, s) ≤ ε_s, in squared space on the store
	// kernels like RepSelector's, so budgeting counts exactly the objects
	// relabeling keeps — filled once into one flat buffer
	// (rows[off[ci]:off[ci+1]]), and its marginal gain, exact to start with.
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
	selected, cum := []int(nil), []int{0}
	for len(selected) < len(cands) {
		best := 0
		for ci, g := range gain {
			if g > gain[best] {
				best = ci
			}
		}
		if gain[best] == 0 {
			break // no remaining candidate covers a new member
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
		cum = append(cum, cum[len(cum)-1]+g)
	}
	return selected, cum, rows
}
