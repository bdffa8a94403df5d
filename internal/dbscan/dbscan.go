// Package dbscan implements the density-based clustering algorithm DBSCAN
// (Ester, Kriegel, Sander, Xu — KDD 1996) over any neighborhood index, plus
// the enhancement Section 4 of the DBDC paper describes: the complete set of
// specific core points (Definition 6) and their specific ε-ranges
// (Definition 7) fall out of the one clustering run, so a local site can
// derive its local model without a second pass over the data.
//
// DBSCAN leaves two choices to the processing order — which cluster a border
// object in reach of two gets, and which complete set of specific core
// points is picked. Run fixes both by object id, which makes its Result a
// pure function of the points and Params — the same bytes from
// every index kind and every worker count:
//
//   - p is a core object iff |N_Eps(p)| ≥ MinPts.
//   - The clusters are the connected components of the graph that joins two
//     core objects within Eps of each other, numbered 0, 1, … in ascending
//     order of their lowest core id.
//   - A non-core object belongs to the cluster of its lowest-id core
//     neighbour and is noise when it has none.
//   - Specific core points are picked greedily in ascending core id: a core
//     object is one iff no specific core point picked before it lies within
//     Eps of it (Definition 6). Scor lists them ascending per cluster.
//   - ε_s = Eps + max{dist(s, c) | c core, c ∈ N_Eps(s)} (Definition 7).
//   - RangeQueries is one per object plus one per specific core point.
//
// A region query may leave out objects in leaves the expansion has exhausted,
// once MinPts are in hand; the Result does not depend on it.
package dbscan

import (
	"fmt"
	"math"
	"sync"

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

// Validate reports whether the parameters are usable. Eps must be positive
// and finite: under NaN every distance test fails, so every object would come
// out noise; a finite Eps wider than the data is legal.
func (p Params) Validate() error {
	if !(p.Eps > 0) || math.IsInf(p.Eps, 1) {
		return fmt.Errorf("dbscan: Eps must be positive and finite, got %v", p.Eps)
	}
	if p.MinPts < 1 {
		return fmt.Errorf("dbscan: MinPts must be at least 1, got %d", p.MinPts)
	}
	return nil
}

// Options tune a DBSCAN run beyond the algorithmic parameters.
type Options struct {
	// CollectSpecificCores enables the DBDC enhancement: Scor and
	// SpecificEps are filled in.
	CollectSpecificCores bool
	// Workers is the number of goroutines the region queries are issued
	// from, each against the index Run was given; 1 or less runs on the
	// calling goroutine. It changes how long a run takes and nothing else.
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
	// ascending order (object indexes). Populated only when
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

// Run clusters the points held by idx. The index supplies the data and the
// neighborhoods, exactly like the R*-tree underneath the original DBSCAN; it
// must be safe for concurrent readers, which every index in this module is
// after construction. The Result is the one the package comment defines,
// whatever the index kind and whatever Options.Workers says.
//
// Each chunk — a contiguous id range, one per worker — runs the classic
// seed-stack expansion restricted to its own ids (expand), so inside a chunk
// no union is ever needed; only pairs of core objects that straddle a chunk
// boundary are merged, after the barrier. Until the numbering pass
// res.Labels is the forest those merges build: a core object holds the id of
// its parent, a root holds its own id, and a parent's id is never larger
// than its child's.
func Run(idx index.Index, params Params, opts Options) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := idx.Len()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("dbscan: at most %d objects are supported (ids are stored as int32), got %d", math.MaxInt32, n)
	}
	res := &Result{
		Params: params,
		Labels: cluster.NewLabeling(n),
		Core:   make([]bool, n),
	}
	if opts.CollectSpecificCores {
		res.Scor = make(map[cluster.ID][]int)
		res.SpecificEps = make(map[int]float64)
	}
	workers := opts.Workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	chunks := make([]chunk, workers)
	for w := range chunks {
		chunks[w].lo, chunks[w].hi = w*n/workers, (w+1)*n/workers
	}
	// The calling goroutine takes the first chunk, so one worker starts no
	// goroutine. Every element of Labels and Core has exactly one writer —
	// the chunk that owns the id — and no reader outside that chunk until
	// the barrier, so the expansion needs no atomics.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(c *chunk) {
			defer wg.Done()
			c.expand(idx, res)
		}(&chunks[w])
	}
	chunks[0].expand(idx, res)
	wg.Wait()
	res.RangeQueries = n

	// Merge: two core objects within Eps of each other belong to one cluster.
	// The smaller root stays root, so a cluster's root is its lowest core id
	// whatever the order of the unions.
	labels := res.Labels
	find := func(x cluster.ID) cluster.ID {
		for labels[x] != x {
			labels[x] = labels[labels[x]] // path halving
			x = labels[x]
		}
		return x
	}
	for w := range chunks {
		for rec := chunks[w].cross; len(rec) > 0; rec = rec[2+rec[1]:] {
			a := find(cluster.ID(rec[0]))
			for _, q := range rec[2 : 2+rec[1]] {
				if !res.Core[q] {
					continue
				}
				if b := find(cluster.ID(q)); a < b {
					labels[b] = a
				} else {
					labels[a] = b
					a = b
				}
			}
		}
	}

	// Number the clusters in ascending root id. A parent's id is below its
	// child's, so by the time the scan reaches a core object its parent
	// already holds its final cluster id: one hop, no find.
	var next cluster.ID
	for i, core := range res.Core {
		if !core {
			continue
		}
		if p := labels[i]; int(p) == i {
			labels[i] = next
			next++
		} else {
			labels[i] = labels[p]
		}
	}

	// Borders: a non-core object joins the cluster of its lowest-id core
	// neighbour and stays noise when it has none.
	for w := range chunks {
		for rec := chunks[w].sparse; len(rec) > 0; rec = rec[2+rec[1]:] {
			least := int32(-1)
			for _, q := range rec[2 : 2+rec[1]] {
				if res.Core[q] && (least < 0 || q < least) {
					least = q
				}
			}
			if least >= 0 {
				labels[rec[0]] = labels[least]
			}
		}
	}

	if opts.CollectSpecificCores {
		res.condenseSpecificCores(idx, workers)
	}
	return res, nil
}

// FromCores completes the Result that Run with CollectSpecificCores returns
// over idx from a clustering that knows its core flags: core must be Run's,
// labels any DBSCAN labelling of the objects, up to renaming and the choice
// of cluster for each border object. It numbers the clusters by their lowest
// core id, moves each border object to the cluster of its lowest-id core
// neighbour — one region query each; noise needs none — and condenses the
// specific core points, one query each. The Result keeps core. A core object
// labelled noise or a border object with no core neighbour is an error.
func FromCores(idx index.Index, params Params, core []bool, labels cluster.Labeling) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if n := idx.Len(); len(core) != n || len(labels) != n {
		return nil, fmt.Errorf("dbscan: %d core flags and %d labels for %d objects", len(core), len(labels), n)
	}
	// Over the cores alone, Canonicalize's order of first appearance is
	// ascending lowest core id.
	cores := make(cluster.Labeling, len(core))
	for i := range cores {
		cores[i] = cluster.Noise
		if core[i] {
			if labels[i] < 0 {
				return nil, fmt.Errorf("dbscan: core object %d labelled noise", i)
			}
			cores[i] = labels[i]
		}
	}
	res := &Result{Params: params, Labels: cores.Canonicalize(), Core: core,
		Scor: make(map[cluster.ID][]int), SpecificEps: make(map[int]float64)}
	var buf []int
	for i, id := range labels {
		if core[i] || id < 0 {
			continue
		}
		buf = idx.RangeAppendID(i, params.Eps, buf)
		res.RangeQueries++
		least := -1
		for _, q := range buf {
			if core[q] && (least < 0 || q < least) {
				least = q
			}
		}
		if least < 0 {
			return nil, fmt.Errorf("dbscan: border object %d has no core neighbour", i)
		}
		res.Labels[i] = res.Labels[least]
	}
	res.condenseSpecificCores(idx, 1)
	return res, nil
}

// chunk is one worker's share of a run: the contiguous id range it expands
// and what it has to hand over at the barrier.
type chunk struct {
	lo, hi int // owned ids [lo, hi)
	// cross holds, flat, one record (p, k, k neighbour ids) per owned core
	// object p that has neighbours beyond hi — those neighbours, whose core
	// flags another chunk decides. Neighbours below lo are left to their own
	// chunk: the neighbour relation is symmetric.
	cross []int32
	// sparse holds, in the same format, one record (p, k, the k ids of
	// N_Eps(p)) per owned non-core object p: fewer than MinPts ids, kept
	// because which of them are core is only known once every chunk is done.
	sparse []int32
}

// expand runs the classic DBSCAN expansion over the chunk's ids, one region
// query per id: the ascending scan starts a tree at every object no earlier
// tree reached, and a tree grows through the owned neighbours of its core
// objects by way of a seed stack. Two owned core objects within Eps of each
// other therefore always end up in one tree — whichever is queried first
// queues the other — and a tree's start object is its lowest core id, since
// a lower owned core object connected to it would have grown an earlier tree
// over it. A core object's label is set to its tree's start id. Every other
// owned object is marked Noise the moment it is queued — that is what tells
// a queued object from an Unclassified one — and stays so until Run resolves
// the borders.
func (c *chunk) expand(idx index.Index, res *Result) {
	eps, minPts := res.Params.Eps, res.Params.MinPts
	labels, lo, span := res.Labels, c.lo, uint(c.hi-c.lo)
	// seeds and nbuf are reused across queries; every query result is fully
	// consumed before the next query overwrites the buffer. Queries go by
	// object id (RangeAppendID), so no index materialises a query point.
	var seeds []int32
	var nbuf []int
	// unseen counts, per leaf of an index that has leaves, the ids this chunk
	// may still want from it: the owned ones not yet queued, and the ones
	// beyond the chunk, which link records and which therefore never run out.
	leafOf, leaves := index.LeavesOf(idx)
	var unseen []int32
	if leafOf != nil {
		unseen = make([]int32, leaves)
		for _, leaf := range leafOf[c.lo:] {
			unseen[leaf]++
		}
	}
	for i := c.lo; i < c.hi; i++ {
		if labels[i] != cluster.Unclassified {
			continue
		}
		labels[i] = cluster.Noise
		if unseen != nil {
			unseen[leafOf[i]]--
		}
		seeds = append(seeds[:0], int32(i))
		for len(seeds) > 0 {
			p := seeds[len(seeds)-1]
			seeds = seeds[:len(seeds)-1]
			nbuf = index.RangeIntoIDUnseen(idx, int(p), eps, minPts, unseen, nbuf)
			if len(nbuf) < minPts {
				c.sparse = append(c.sparse, p, int32(len(nbuf)))
				for _, q := range nbuf {
					c.sparse = append(c.sparse, int32(q))
				}
				continue
			}
			res.Core[p] = true
			labels[p] = cluster.ID(i)
			// Every neighbour of every core object passes through this loop,
			// so it is kept to a range test, a label test and one append:
			// neighbours outside the range are rare and get a pass of their
			// own (link). Even a second branch that only counts the ones
			// beyond hi here measured 3–15% on a one-worker run.
			owned := 0
			for _, q := range nbuf {
				if uint(q-lo) < span {
					owned++
					if labels[q] == cluster.Unclassified {
						labels[q] = cluster.Noise
						if unseen != nil {
							unseen[leafOf[q]]--
						}
						seeds = append(seeds, int32(q))
					}
				}
			}
			if owned < len(nbuf) {
				c.link(p, nbuf)
			}
		}
	}
}

// link records those neighbours nbuf of the owned core object p that lie
// beyond the chunk's end, if there are any.
func (c *chunk) link(p int32, nbuf []int) {
	head := len(c.cross)
	c.cross = append(c.cross, p, 0)
	for _, q := range nbuf {
		if q >= c.hi {
			c.cross = append(c.cross, int32(q))
		}
	}
	if k := len(c.cross) - head - 2; k > 0 {
		c.cross[head+1] = int32(k)
	} else {
		c.cross = c.cross[:head]
	}
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
// The query goes through idx.RangeAppendID into the reused *buf, which holds
// N_Eps(s) on return. The maximum is taken over the store st in squared space
// by one batched fold — row s against all core neighbor rows, a single sqrt
// per specific core point instead of one per neighbor; exact, since the
// correctly rounded sqrt is monotone and commutes with max.
func (r *Result) specificEps(idx index.Index, st *geom.Store, bs *batchScratch, buf *[]int, s int) float64 {
	*buf = idx.RangeAppendID(s, r.Params.Eps, *buf)
	return r.Params.Eps + math.Sqrt(maxCoreNeighborSq(st, r.Core, *buf, s, bs))
}
