// Package dbscan implements the density-based clustering algorithm DBSCAN
// (Ester, Kriegel, Sander, Xu — KDD 1996) over any neighborhood index, plus
// the enhancement Section 4 of the DBDC paper describes: the complete set of
// specific core points (Definition 6) and their specific ε-ranges
// (Definition 7) are extracted during the clustering run, so a local site
// can derive its local model without a second pass over the data.
package dbscan

import (
	"fmt"
	"math"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// Params are the two DBSCAN parameters: the neighborhood radius Eps and the
// density threshold MinPts (the minimum cardinality of N_Eps(p), including p
// itself, for p to be a core object).
type Params struct {
	Eps    float64
	MinPts int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Eps <= 0 {
		return fmt.Errorf("dbscan: Eps must be positive, got %v", p.Eps)
	}
	if p.MinPts < 1 {
		return fmt.Errorf("dbscan: MinPts must be at least 1, got %d", p.MinPts)
	}
	return nil
}

// Options tune a DBSCAN run beyond the algorithmic parameters.
type Options struct {
	// CollectSpecificCores enables the DBDC enhancement: specific core
	// points are selected greedily in processing order during the run and
	// their ε-ranges computed afterwards.
	CollectSpecificCores bool
	// Workers selects intra-site parallelism: with Workers > 1 Run delegates
	// to RunParallel, which issues the per-object region queries from that
	// many goroutines — each against the index Run was given, so the index
	// kind is honoured at every worker count — and merges the partial
	// results with a union-find over core-point adjacency. 0 or 1 keeps the
	// classic sequential expansion. The core partition and cluster numbering
	// are identical to the sequential run; see RunParallel for the
	// border-point tie rule.
	Workers int
}

// Result holds the outcome of a DBSCAN run.
type Result struct {
	Params Params
	// Labels assigns each object its cluster id or noise.
	Labels cluster.Labeling
	// Core marks the core objects (|N_Eps(p)| >= MinPts).
	Core []bool
	// Scor holds, per cluster, the complete set of specific core points in
	// selection order (object indexes). Populated only when
	// Options.CollectSpecificCores was set.
	Scor map[cluster.ID][]int
	// SpecificEps maps each specific core point (by object index) to its
	// specific ε-range ε_s (Definition 7). Populated with Scor.
	SpecificEps map[int]float64
	// RangeQueries counts the region queries issued — the dominant cost of
	// DBSCAN and the quantity its complexity analysis is stated in.
	RangeQueries int
	// Shards is always 0: nothing sets it since the spatial-shard phase 1
	// was deleted. It stays only because the frozen bench/ module reads it;
	// drop it in the next [benchmark] PR.
	Shards int
}

// NumClusters returns the number of clusters found.
func (r *Result) NumClusters() int { return r.Labels.NumClusters() }

// IsBorder reports whether object i is a border object: assigned to a
// cluster but not core.
func (r *Result) IsBorder(i int) bool { return r.Labels[i] >= 0 && !r.Core[i] }

// Run clusters the points held by idx. The index supplies both the data and
// the metric, exactly like the R*-tree underneath the original DBSCAN.
// With Options.Workers > 1 the run is delegated to RunParallel.
func Run(idx index.Index, params Params, opts Options) (*Result, error) {
	if opts.Workers > 1 {
		return RunParallel(idx, params, opts)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := idx.Len()
	res := &Result{
		Params: params,
		Labels: cluster.NewLabeling(n),
		Core:   make([]bool, n),
	}
	if opts.CollectSpecificCores {
		res.Scor = make(map[cluster.ID][]int)
		res.SpecificEps = make(map[int]float64)
	}
	var clusterID cluster.ID
	// seeds and nbuf are reused across queries to avoid per-object
	// allocations; every query result is fully consumed before the next
	// query overwrites the buffer. Queries go by object id (RangeIntoID), so
	// store-backed indexes never materialise a query point. covered holds
	// the Definition 6 marks (see selectSpecificCore).
	var seeds, nbuf []int
	var covered []bool
	if opts.CollectSpecificCores {
		covered = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		if res.Labels[i] != cluster.Unclassified {
			continue
		}
		neighbors := index.RangeIntoID(idx, i, params.Eps, nbuf)
		nbuf = neighbors
		res.RangeQueries++
		if len(neighbors) < params.MinPts {
			res.Labels[i] = cluster.Noise
			continue
		}
		// i is a core object: it starts a new cluster and, being the first
		// core point processed for this cluster, is always a specific core
		// point.
		res.Core[i] = true
		res.Labels[i] = clusterID
		if opts.CollectSpecificCores {
			res.selectSpecificCore(clusterID, i, neighbors, covered)
		}
		seeds = seeds[:0]
		for _, q := range neighbors {
			if q == i {
				continue
			}
			switch res.Labels[q] {
			case cluster.Unclassified:
				res.Labels[q] = clusterID
				seeds = append(seeds, q)
			case cluster.Noise:
				// Former noise in reach of a core object becomes a border
				// object of this cluster.
				res.Labels[q] = clusterID
			}
		}
		for len(seeds) > 0 {
			q := seeds[len(seeds)-1]
			seeds = seeds[:len(seeds)-1]
			qNeighbors := index.RangeIntoID(idx, q, params.Eps, nbuf)
			nbuf = qNeighbors
			res.RangeQueries++
			if len(qNeighbors) < params.MinPts {
				continue // q is a border object
			}
			res.Core[q] = true
			if opts.CollectSpecificCores && !covered[q] {
				res.selectSpecificCore(clusterID, q, qNeighbors, covered)
			}
			for _, r := range qNeighbors {
				switch res.Labels[r] {
				case cluster.Unclassified:
					res.Labels[r] = clusterID
					seeds = append(seeds, r)
				case cluster.Noise:
					res.Labels[r] = clusterID
				}
			}
		}
		clusterID++
	}
	if opts.CollectSpecificCores {
		res.computeSpecificEps(idx)
	}
	return res, nil
}

// batchScratch holds the reusable id and distance buffers of the batched
// Definition 7 fold. One instance per sequential run or per condensation
// worker; zero value ready to use.
type batchScratch struct {
	ids  []int
	dist []float64
}

// selectSpecificCore adds the core point s to Scor of its cluster and marks
// its Eps-neighborhood — the query result the caller already holds — as
// covered. That is the whole greedy Definition 6 selection: a core point is
// selected iff it is unmarked when it is processed, i.e. iff it lies in the
// Eps-neighborhood of no specific core point selected before it, so every
// core point is either selected or covered and condition 3 (complete
// coverage of Cor) holds by construction. One flat mark slice serves every
// cluster: a core point within Eps of a selected core point is directly
// density-reachable from it and so in its cluster, which is why "covered by
// a specific core point" needs no "of the same cluster". The marks on
// non-core neighbors are never read.
func (r *Result) selectSpecificCore(id cluster.ID, s int, neighbors []int, covered []bool) {
	r.Scor[id] = append(r.Scor[id], s)
	for _, q := range neighbors {
		covered[q] = true
	}
}

// maxCoreNeighborSq folds the maximum squared kernel distance from s to its
// core neighbors in buf through one batched sweep: ids are filtered first
// (the fold order is buf order either way), distances computed in one
// gather, maximum taken over the block. Operand order matches the historical
// per-pair Store.DistanceSq(s, ni) fold exactly.
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

// specificEps evaluates Definition 7 for the specific core point s:
// ε_s = Eps + max{dist(s, s_i) | s_i ∈ Cor ∧ s_i ∈ N_Eps(s)}. When no other
// core point lies in the neighborhood the maximum is empty and ε_s = Eps.
// The query goes through index.RangeIntoID into the reused *buf, which holds
// N_Eps(s) on return. On a store-backed index the maximum is taken in
// squared space by one batched fold — row s against all core neighbor rows,
// a single sqrt per specific core point instead of one per neighbor; exact,
// since the correctly rounded sqrt is monotone and commutes with max.
func (r *Result) specificEps(idx index.Index, metric geom.Metric, st *geom.Store, bs *batchScratch, buf *[]int, s int) float64 {
	*buf = index.RangeIntoID(idx, s, r.Params.Eps, *buf)
	if st != nil {
		return r.Params.Eps + math.Sqrt(maxCoreNeighborSq(st, r.Core, *buf, s, bs))
	}
	sp := idx.Point(s)
	var maxDist float64
	for _, ni := range *buf {
		if ni == s || !r.Core[ni] {
			continue
		}
		if d := metric.Distance(sp, idx.Point(ni)); d > maxDist {
			maxDist = d
		}
	}
	return r.Params.Eps + maxDist
}

// computeSpecificEps evaluates Definition 7 for every selected specific core
// point, one range query each: the sequential expansion selects a specific
// core before the core flags of its neighbors are all known, so ε_s has to
// wait for the end of the run.
func (r *Result) computeSpecificEps(idx index.Index) {
	metric, st := idx.Metric(), index.StoreOf(idx)
	var bs batchScratch
	var buf []int
	for _, scor := range r.Scor {
		for _, s := range scor {
			r.RangeQueries++
			r.SpecificEps[s] = r.specificEps(idx, metric, st, &bs, &buf, s)
		}
	}
}
