package dbscan

import (
	"sync"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// condenseSpecificCores runs the condensation phase of Run —
// specific core selection (Definition 6) and the specific ε-ranges
// (Definition 7) in one pass — with per-cluster parallelism. With every core
// flag known, a core point no selected specific core covers is selected,
// queried once, and that one neighbor list both marks what it covers and
// yields its ε_s (condenseCore). The greedy selection is a strict
// left-to-right fold within each cluster (whether point i is kept depends on
// the points kept before it), so it cannot be split *inside* a cluster
// without changing the selected set; but clusters never interact during
// condensation, which makes the cluster the natural parallel unit. Workers
// pull whole clusters off a shared cursor and run the identical
// ascending-index greedy per cluster, so the output — Scor order included —
// is byte-identical to the sequential fold for any worker count.
//
// workers ≤ 1 keeps the sequential path (no goroutines, no merge copies).
func (r *Result) condenseSpecificCores(idx index.Index, workers int) {
	metric := idx.Metric()
	st := index.StoreOf(idx)
	covered := make([]bool, len(r.Core))
	if workers <= 1 {
		var bs batchScratch
		var buf []int
		for i := range r.Core {
			if r.Core[i] && !covered[i] {
				id := r.Labels[i]
				r.Scor[id] = append(r.Scor[id], i)
				r.RangeQueries++
				r.SpecificEps[i] = r.condenseCore(idx, metric, st, &bs, &buf, covered, i)
			}
		}
		return
	}

	// Group the core points per cluster, ascending. A single pass over the
	// labeling preserves index order within every cluster — the exact order
	// the sequential greedy folds in.
	numClusters := r.Labels.NumClusters()
	if numClusters == 0 {
		return
	}
	coresByCluster := make([][]int, numClusters)
	for i := range r.Core {
		if r.Core[i] {
			id := r.Labels[i]
			coresByCluster[id] = append(coresByCluster[id], i)
		}
	}
	if workers > numClusters {
		workers = numClusters
	}

	// Per-cluster condensation into private outputs. Clusters vary wildly
	// in size, so instead of a static split the workers pull whole clusters
	// off a shared cursor — dynamic load balancing with one tiny critical
	// section per cluster.
	type condensed struct {
		scor    []int
		eps     []float64 // aligned with scor
		queries int
	}
	out := make([]condensed, numClusters)
	var cursor int
	var mu sync.Mutex
	next := func() int {
		mu.Lock()
		defer mu.Unlock()
		if cursor >= numClusters {
			return -1
		}
		c := cursor
		cursor++
		return c
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []int
			var bs batchScratch
			for {
				c := next()
				if c < 0 {
					return
				}
				// Greedy coverage in ascending core order: keep a core
				// point iff no already-kept one covers it.
				var scor []int
				var eps []float64
				for _, q := range coresByCluster[c] {
					if !covered[q] {
						scor = append(scor, q)
						eps = append(eps, r.condenseCore(idx, metric, st, &bs, &buf, covered, q))
					}
				}
				out[c] = condensed{scor: scor, eps: eps, queries: len(scor)}
			}
		}()
	}
	wg.Wait()

	// Sequential merge in cluster order: maps see exactly the writes the
	// sequential fold would have made.
	for c := range out {
		if len(out[c].scor) == 0 {
			continue
		}
		r.Scor[cluster.ID(c)] = out[c].scor
		for k, s := range out[c].scor {
			r.SpecificEps[s] = out[c].eps[k]
		}
		r.RangeQueries += out[c].queries
	}
}

// condenseCore is the step of the condensation for a core point s that no
// selected specific core covers: one query for N_Eps(s), which marks the core
// points s covers (Definition 6) and from which ε_s is folded (Definition 7).
// Only core neighbors are marked, which is all the selection reads — and what
// lets per-cluster workers share covered: a core neighbor of s is in s's
// cluster, so each element has one writer, while a border point can lie in
// reach of two clusters.
func (r *Result) condenseCore(idx index.Index, metric geom.Metric, st *geom.Store, bs *batchScratch, buf *[]int, covered []bool, s int) float64 {
	eps := r.specificEps(idx, metric, st, bs, buf, s)
	for _, q := range *buf {
		if r.Core[q] {
			covered[q] = true
		}
	}
	return eps
}
