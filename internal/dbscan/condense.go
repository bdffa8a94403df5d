package dbscan

import (
	"math"
	"sync/atomic"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
)

// condense is the condensation phase of Run and FromCores — specific core
// selection (Definition 6) and the specific ε-ranges (Definition 7) in one
// pass. With every core flag known, a core point no selected specific core
// covers is selected, its neighbourhood walked once, and that one neighbour
// list both marks what it covers and yields its ε_s (condenseCore). The
// greedy selection is a strict left-to-right fold within each cluster
// (whether point i is kept depends on the points kept before it), so it
// cannot be split *inside* a cluster without changing the selected set; but
// clusters never interact during condensation, which makes the cluster the
// natural parallel unit. The workers, the calling goroutine among them, pull
// whole clusters off a shared cursor and run the ascending-index greedy per
// cluster into private outputs, merged in cluster order, so the output —
// Scor order included — is the same for any worker count; one worker is the
// calling goroutine alone.
func (s *schedule) condense(r *Result, ws []worker) {
	// head[c] is cluster c's lowest core id, after[p] the next core id of
	// p's cluster, -1 past the last: the ascending order the greedy folds in.
	var head []int32
	after := make([]int32, len(r.Core))
	for i := len(r.Core) - 1; i >= 0; i-- {
		if r.Core[i] {
			c := int(r.Labels[i])
			for c >= len(head) {
				head = append(head, -1)
			}
			head[c], after[i] = int32(i), head[c]
		}
	}
	numClusters := len(head)
	if numClusters == 0 {
		return
	}
	type condensed struct {
		scor []int
		eps  []float64 // aligned with scor
	}
	out := make([]condensed, numClusters)
	covered := make([]bool, len(r.Core))
	var cursor atomic.Int64
	each(ws[:min(len(ws), numClusters)], func(w *worker) {
		for c := int(cursor.Add(1)) - 1; c < numClusters; c = int(cursor.Add(1)) - 1 {
			for q := int(head[c]); q >= 0; q = int(after[q]) {
				if !covered[q] {
					out[c].scor = append(out[c].scor, q)
					out[c].eps = append(out[c].eps, s.condenseCore(w, covered, q))
				}
			}
		}
	})
	for c := range out {
		r.Scor[cluster.ID(c)] = out[c].scor
		for k, p := range out[c].scor {
			r.SpecificEps[p] = out[c].eps[k]
		}
		r.RangeQueries += len(out[c].scor)
	}
}

// condenseCore is the step of the condensation for a core point p that no
// selected specific core covers: one walk for N_Eps(p), which marks the core
// points p covers (Definition 6) and from which
// ε_p = Eps + max{dist(p, c) | c ∈ Cor ∩ N_Eps(p)} is folded (Definition 7;
// Eps when no other core point lies in the neighbourhood). Only core
// neighbours are marked, which is all the selection reads — and what lets
// per-cluster workers share covered: a core neighbour of p is in p's
// cluster, so each element has one writer, while a border point can lie in
// reach of two clusters.
func (s *schedule) condenseCore(w *worker, covered []bool, p int) float64 {
	buf := s.neighbours(w, p)
	for _, q := range buf {
		if s.core[q] {
			covered[q] = true
		}
	}
	return s.eps + math.Sqrt(maxCoreNeighborSq(s.st, s.core, buf, p, &w.bs))
}

// batchScratch holds the reusable id and distance buffers of the batched
// Definition 7 fold. One instance per condensation worker; zero value ready
// to use.
type batchScratch struct {
	ids  []int
	dist []float64
}

// maxCoreNeighborSq folds the maximum squared kernel distance from s to its
// core neighbors in buf through one batched sweep: ids are filtered first
// (the fold order is buf order either way), distances computed in one
// gather, maximum taken over the block. Operand order matches the historical
// per-pair Store.DistanceSq(s, ni) fold exactly, and the one sqrt taken of
// the maximum is exact: the correctly rounded sqrt is monotone and commutes
// with max.
func maxCoreNeighborSq(st *geom.Store, core []bool, buf []int, s int, bs *batchScratch) float64 {
	ids := bs.ids[:0]
	for _, ni := range buf {
		if ni == s || !core[ni] {
			continue
		}
		ids = append(ids, ni)
	}
	var maxSq float64
	if len(ids) > 0 {
		if cap(bs.dist) < len(ids) {
			bs.dist = make([]float64, 2*len(ids))
		}
		d := st.DistanceSqBatch(st.Point(s), ids, bs.dist[:len(ids)])
		for _, d2 := range d {
			if d2 > maxSq {
				maxSq = d2
			}
		}
	}
	bs.ids = ids
	return maxSq
}
