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
	metric := idx.Metric()
	// st is the flat backing store of a Euclidean index; the specific-core
	// coverage and ε-range folds then run on the strided kernels by object
	// id.
	st := index.StoreOf(idx)
	var clusterID cluster.ID
	// seeds and nbuf are reused across queries to avoid per-object
	// allocations; every query result is fully consumed before the next
	// query overwrites the buffer. Queries go by object id (RangeIntoID), so
	// store-backed indexes never materialise a query point. bs carries the
	// batched-fold buffers of the specific-core bookkeeping.
	var seeds, nbuf []int
	var bs batchScratch
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
			res.Scor[clusterID] = append(res.Scor[clusterID], i)
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
			if opts.CollectSpecificCores {
				res.maybeAddSpecificCore(idx, metric, st, clusterID, q, &bs)
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
		res.computeSpecificEps(idx, metric, st, &bs)
	}
	return res, nil
}

// batchScratch holds the reusable state of the batched store folds: id and
// distance buffers plus the per-cluster specific-core grids of the coverage
// test. One instance per sequential run or per condensation worker; zero
// value ready to use.
type batchScratch struct {
	ids   []int
	dist  []float64
	grids map[cluster.ID]*scorGrid
}

// grid returns (creating on first use) the coverage grid of cluster id.
func (bs *batchScratch) grid(id cluster.ID) *scorGrid {
	if bs.grids == nil {
		bs.grids = make(map[cluster.ID]*scorGrid)
	}
	g := bs.grids[id]
	if g == nil {
		g = &scorGrid{}
		bs.grids[id] = g
	}
	return g
}

// coverBlock is the block size of the batched fallback coverage scan: large
// enough that the gathered kernel sweep amortizes and cache misses overlap,
// small enough that an early covering hit doesn't pay for the whole Scor
// list.
const coverBlock = 32

// scorCellQuotLimit bounds the cell quotients the coverage grid accepts:
// beyond it the int64 conversion could overflow and scramble cell adjacency,
// so such points route to the exhaustive fallback scan instead.
const scorCellQuotLimit = float64(1 << 62)

// scorGrid is a uniform hash grid over one cluster's selected specific
// cores, the accelerator of the Definition 6 coverage test. Greedy selection
// keeps specific cores pairwise more than Eps apart, so cells of edge 2·Eps
// hold O(1) of them and every point within Eps of a query lies in one of
// the 3^d cells surrounding the query's (the per-axis separation is at most
// half a cell edge, plus rounding margins orders of magnitude below the
// remaining half). Cell coordinates are folded into a 64-bit hash with no
// collision handling: a collision only merges candidate lists, and since
// every candidate is still verified through the batched distance kernel the
// coverage verdict — an OR over independent threshold tests, invariant to
// scan order — is identical to the exhaustive scan's. Points whose cell
// quotient leaves the int64-safe range (NaN, infinities, astronomical
// magnitudes) are never indexed; their presence flips the grid into
// fallback mode and coveredByStore reverts to the exhaustive blocked scan.
type scorGrid struct {
	cell     float64
	origin   []float64
	cells    map[uint64][]int
	coords   []int64
	synced   int
	disabled bool
}

// hashCells folds the int64 cell coordinates in coords into an FNV-1a hash.
func hashCells(coords []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range coords {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// cellCoords writes p's cell coordinates into g.coords, reporting false if
// any quotient is NaN or too large to convert safely.
func (g *scorGrid) cellCoords(p geom.Point) bool {
	for d, o := range g.origin {
		quot := math.Floor((p[d] - o) / g.cell)
		if !(quot >= -scorCellQuotLimit && quot <= scorCellQuotLimit) {
			return false
		}
		g.coords[d] = int64(quot)
	}
	return true
}

// sync indexes the scor entries added since the last call.
func (g *scorGrid) sync(st *geom.Store, scor []int, eps float64) {
	if g.cells == nil {
		g.cell = 2 * eps
		g.origin = append(g.origin[:0], st.Point(scor[0])...)
		g.cells = make(map[uint64][]int)
		g.coords = make([]int64, st.Dim())
	}
	for _, s := range scor[g.synced:] {
		if !g.cellCoords(st.Point(s)) {
			g.disabled = true
			break
		}
		h := hashCells(g.coords)
		g.cells[h] = append(g.cells[h], s)
	}
	g.synced = len(scor)
}

// coveredByStore reports whether object q lies within eps2 of any id in
// scor. The grid narrows the scan to the 3^d cells around q — a complete
// candidate superset of the possible coverers (see scorGrid) — and the
// batched kernel delivers the verdicts, querying with q's row against each
// s-row (flipping the historical kernel(row_s, row_q) operand order is
// immaterial: squared distances are bitwise symmetric for every non-NaN
// operand pair and a NaN distance fails the ≤ eps2 test under either
// order). The selected Scor set is therefore identical to the historical
// one-pair-at-a-time forward scan. Out-of-range coordinates drop to
// coveredByScan, the exhaustive blocked variant.
func coveredByStore(st *geom.Store, g *scorGrid, scor []int, q int, eps, eps2 float64, bs *batchScratch) bool {
	if len(scor) == 0 {
		return false
	}
	g.sync(st, scor, eps)
	qp := st.Point(q)
	if g.disabled || !g.cellCoords(qp) {
		return coveredByScan(st, scor, qp, eps2, bs)
	}
	cand := bs.ids[:0]
	coords := g.coords
	switch len(coords) {
	case 2:
		c0, c1 := coords[0], coords[1]
		for d0 := c0 - 1; d0 <= c0+1; d0++ {
			for d1 := c1 - 1; d1 <= c1+1; d1++ {
				coords[0], coords[1] = d0, d1
				cand = append(cand, g.cells[hashCells(coords)]...)
			}
		}
		coords[0], coords[1] = c0, c1
	default:
		cand = g.gatherNeighbors(0, cand)
	}
	bs.ids = cand[:0]
	if len(cand) == 0 {
		return false
	}
	if cap(bs.dist) < len(cand) {
		bs.dist = make([]float64, len(cand)+coverBlock)
	}
	for _, d2 := range st.DistanceSqBatch(qp, cand, bs.dist[:len(cand)]) {
		if d2 <= eps2 {
			return true
		}
	}
	return false
}

// gatherNeighbors appends the ids of every cell within one step of
// g.coords[axis:] along the remaining axes (recursing one axis at a time;
// g.coords is restored before returning).
func (g *scorGrid) gatherNeighbors(axis int, cand []int) []int {
	if axis == len(g.coords) {
		return append(cand, g.cells[hashCells(g.coords)]...)
	}
	c := g.coords[axis]
	for d := c - 1; d <= c+1; d++ {
		g.coords[axis] = d
		cand = g.gatherNeighbors(axis+1, cand)
	}
	g.coords[axis] = c
	return cand
}

// coveredByScan is the exhaustive coverage fallback: blocks run through the
// batched store kernel newest-first (the most recently selected specific
// core is the likeliest coverer) with an early exit between blocks. The
// verdict is an OR over independent threshold tests, so scan order cannot
// change it.
func coveredByScan(st *geom.Store, scor []int, qp geom.Point, eps2 float64, bs *batchScratch) bool {
	if cap(bs.dist) < coverBlock {
		bs.dist = make([]float64, coverBlock)
	}
	for end := len(scor); end > 0; end -= coverBlock {
		base := end - coverBlock
		if base < 0 {
			base = 0
		}
		d := st.DistanceSqBatch(qp, scor[base:end], bs.dist[:end-base])
		for _, d2 := range d {
			if d2 <= eps2 {
				return true
			}
		}
	}
	return false
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
			bs.dist = make([]float64, len(ids)+coverBlock)
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

// maybeAddSpecificCore applies the greedy Definition 6 selection: a freshly
// identified core point joins Scor of its cluster unless it already lies in
// the Eps-neighborhood of a previously selected specific core point. Every
// core point is either selected or covered at the moment it is processed, so
// condition 3 of Definition 6 (complete coverage of Cor) holds by
// construction.
func (r *Result) maybeAddSpecificCore(idx index.Index, metric geom.Metric, st *geom.Store, id cluster.ID, q int, bs *batchScratch) {
	if !coveredBySpecificCore(idx, metric, st, bs, id, r.Scor[id], q, r.Params.Eps) {
		r.Scor[id] = append(r.Scor[id], q)
	}
}

// coveredBySpecificCore reports whether object q lies within eps of any id in
// scor, the specific cores selected so far for cluster id: through the
// batched store kernels by id in squared space when the index is
// store-backed (see coveredByStore), through the metric otherwise.
func coveredBySpecificCore(idx index.Index, metric geom.Metric, st *geom.Store, bs *batchScratch, id cluster.ID, scor []int, q int, eps float64) bool {
	if st != nil {
		return coveredByStore(st, bs.grid(id), scor, q, eps, eps*eps, bs)
	}
	qp := idx.Point(q)
	for _, s := range scor {
		if metric.Distance(idx.Point(s), qp) <= eps {
			return true
		}
	}
	return false
}

// specificEps evaluates Definition 7 for the specific core point s:
// ε_s = Eps + max{dist(s, s_i) | s_i ∈ Cor ∧ s_i ∈ N_Eps(s)}. When no other
// core point lies in the neighborhood the maximum is empty and ε_s = Eps.
// The query goes through index.RangeIntoID into the reused *buf. On a
// store-backed index the maximum is taken in squared space by one batched
// fold — row s against all core neighbor rows, a single sqrt per specific
// core point instead of one per neighbor; exact, since the correctly rounded
// sqrt is monotone and commutes with max.
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
// point, one range query each.
func (r *Result) computeSpecificEps(idx index.Index, metric geom.Metric, st *geom.Store, bs *batchScratch) {
	var buf []int
	for _, scor := range r.Scor {
		for _, s := range scor {
			r.RangeQueries++
			r.SpecificEps[s] = r.specificEps(idx, metric, st, bs, &buf, s)
		}
	}
}
