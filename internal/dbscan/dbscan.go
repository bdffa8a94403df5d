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
//   - RangeQueries is n + |Scor|, the paper's cost count: one region query per
//     object and one per specific core point. Run issues none: every
//     neighbourhood it needs is a walk over the index's leaves (walk), the
//     walk Neighbours offers OPTICS and pdbscan by id.
package dbscan

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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
	// Workers is the number of goroutines that count neighbours, taking
	// ranges of the index's leaves in turn, and condense the clusters; 1 or
	// less runs on the calling goroutine. It changes nothing but the time.
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
	// RangeQueries is the paper's cost count, n + |Scor|, the quantity
	// DBSCAN's complexity analysis is stated in; Run walks leaves instead.
	RangeQueries int
	// Shards is always 0: nothing sets it since the spatial-shard phase 1
	// was deleted. It stays only because the frozen bench/ module reads it;
	// drop it in the next [benchmark] PR.
	Shards int
}

// NumClusters returns the number of clusters found: the largest label + 1,
// the clusters being numbered 0, 1, … (see the package comment).
func (r *Result) NumClusters() int {
	var k cluster.ID
	for _, id := range r.Labels {
		k = max(k, id+1)
	}
	return int(k)
}

// IsBorder reports whether object i is a border object: assigned to a
// cluster but not core.
func (r *Result) IsBorder(i int) bool { return r.Labels[i] >= 0 && !r.Core[i] }

// Run clusters the points held by idx. The index supplies the data and the
// neighborhoods, exactly like the R*-tree underneath the original DBSCAN; it
// must be safe for concurrent readers, which every index in this module is
// after construction. The Result is the one the package comment defines,
// whatever the index kind and whatever Options.Workers says.
//
// The schedule works over the index's leaves and the leaves within Eps of
// each, box to box: step 1 (count) finds the core objects by counting and
// unites them within each leaf, step 2 (link) across pairs of leaves; the
// condensation walks a specific core point's neighbourhood the way step 1
// does, without its stop.
// Until the numbering pass res.Labels is the forest of those unions, a
// parent's id never larger than its child's.
func Run(idx index.Index, params Params, opts Options) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := idx.Len()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("dbscan: at most %d objects are supported (ids are stored as int32), got %d", math.MaxInt32, n)
	}
	res := &Result{
		Params:       params,
		Labels:       cluster.NewLabeling(n),
		Core:         make([]bool, n),
		RangeQueries: n,
	}
	if opts.CollectSpecificCores {
		res.Scor = make(map[cluster.ID][]int)
		res.SpecificEps = make(map[int]float64)
	}
	if n == 0 {
		return res, nil
	}
	// Workers, the calling goroutine among them, take leaf ranges off a
	// cursor; an object's state has one writer, the worker of its leaf.
	s, ws := newSchedule(idx, res, max(opts.Workers, 1))
	var cursor atomic.Int64
	each(ws, func(w *worker) {
		for lo := 0; lo < len(s.leaf); {
			lo = int(cursor.Add(8)) - 8
			for leaf := lo; leaf < min(lo+8, len(s.leaf)); leaf++ {
				s.count(w, leaf)
			}
		}
	})
	s.link(&ws[0])

	// Number the clusters in ascending root id. A parent's id is below its
	// child's, so by the time the scan reaches a core object its parent
	// already holds its final cluster id: one hop, no find.
	labels := res.Labels
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
	for w := range ws {
		for rec := ws[w].sparse; len(rec) > 0; rec = rec[2+rec[1]:] {
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
		s.condense(res, ws)
	}
	return res, nil
}

// each runs f once for every worker, all at once, the first on the calling
// goroutine.
func each(ws []worker, f func(*worker)) {
	var wg sync.WaitGroup
	for w := range ws[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(&ws[1+w])
		}()
	}
	f(&ws[0])
	wg.Wait()
}

// FromCores completes the Result that Run with CollectSpecificCores returns
// over idx from a clustering that knows its core flags: core must be Run's,
// labels any DBSCAN labelling of the objects, up to renaming and the choice
// of cluster for each border object. It numbers the clusters by their lowest
// core id, moves each border object to the cluster of its lowest-id core
// neighbour — one neighbourhood each, by Run's leaf walk; noise needs none —
// and condenses the specific core points, one neighbourhood each. The Result
// keeps core. A core object labelled noise or a border object with no core
// neighbour is an error.
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
	if len(core) == 0 { // no rows, no box for the one leaf
		return res, nil
	}
	s, ws := newSchedule(idx, res, 1)
	for i, id := range labels {
		if core[i] || id < 0 {
			continue
		}
		res.RangeQueries++
		least := -1
		for _, q := range s.neighbours(&ws[0], i) {
			if core[q] && (least < 0 || q < least) {
				least = q
			}
		}
		if least < 0 {
			return nil, fmt.Errorf("dbscan: border object %d has no core neighbour", i)
		}
		res.Labels[i] = res.Labels[least]
	}
	s.condense(res, ws)
	return res, nil
}

// keep is how many neighbour ids in its own leaf a core object is united
// with in step 1: enough to join most of a dense leaf's core objects.
const keep = 4

// schedule is the state of one Run shared by its steps.
type schedule struct {
	st        *geom.Store
	leaves    index.Index
	leaf      []reach // per leaf, its ids and box
	eps, eps2 float64
	minPts    int
	core      []bool
	parent    cluster.Labeling // res.Labels: Noise or, for core objects, a forest
	rep       []int32          // per leaf, shared's answer
	leafOf    []int32          // per id, its leaf
}

// worker is one worker's scratch, allocated once per run; the first worker's
// serves step 2 too, and each condenses clusters after it. sparse holds,
// flat, one record (p, k, the k ids of N_Eps(p)) per non-core object p it
// counted.
type worker struct {
	near             []int32
	order            []reach
	buf, cores, cand []int
	out              []int
	roots, kept      []int32
	sparse           []int32
	bs               batchScratch
}

// reach is a leaf: its ids and its box.
type reach struct {
	ids []int
	box []float64
}

func newSchedule(idx index.Index, res *Result, workers int) (*schedule, []worker) {
	st, n, eps2 := idx.Store(), idx.Len(), res.Params.Eps*res.Params.Eps
	s := &schedule{st: st, leaves: idx, eps: res.Params.Eps, eps2: eps2, minPts: res.Params.MinPts,
		core: res.Core, parent: res.Labels}
	leaves, maxLeaf := idx.NumLeaves(), 0
	s.leaf, s.rep, s.leafOf = make([]reach, leaves), make([]int32, leaves), make([]int32, n)
	for leaf := range leaves {
		ids, box := idx.Leaf(leaf)
		s.leaf[leaf], maxLeaf = reach{ids, box}, max(maxLeaf, len(ids))
		for _, p := range ids {
			s.leafOf[p] = int32(leaf)
		}
	}
	workers = min(workers, max(leaves, 1))
	ws := make([]worker, workers)
	for w := range ws { // nothing grows over a run but the records
		ws[w] = worker{near: make([]int32, 0, leaves), order: make([]reach, 0, leaves),
			buf: make([]int, 0, min(s.minPts, n)+2*maxLeaf), kept: make([]int32, keep*maxLeaf),
			cores: make([]int, 0, maxLeaf), cand: make([]int, 0, maxLeaf), out: make([]int, 0, maxLeaf),
			roots: make([]int32, 0, maxLeaf), sparse: make([]int32, 0, n/2/workers)}
	}
	return s, ws
}

// gapFar returns the least and the greatest squared distance from q to the
// box (Min corner, Max corner) in the kernels' operation chain. Rounding is
// monotone, so every point of the box lies at a kernel distance between them.
func gapFar(q geom.Point, box []float64) (gap, far float64) {
	lo, hi := box[:len(q)], box[len(q):][:len(q)]
	for d, v := range q {
		a, b := v-lo[d], v-hi[d] // a ≥ b, so at most one of them is past 0
		g, f := min(a, 0)+max(b, 0), max(a, -b)
		gap += g * g
		far += f * f
	}
	return gap, far
}

// near fills w.order with the leaf, then the leaves near it at Eps.
func (s *schedule) near(w *worker, leaf int) {
	w.near = s.leaves.NearLeaves(leaf, s.eps, w.near[:0])
	w.order = append(w.order[:0], s.leaf[leaf])
	for _, m := range w.near {
		if int(m) != leaf {
			w.order = append(w.order, s.leaf[m])
		}
	}
}

// walk appends to buf the ε-neighbours of q, a point of order's first leaf,
// leaf by leaf in order, and stops once it holds stop of them; own is how
// many the first leaf gave. gapFar sorts each leaf: out of reach it is passed
// over, wholly in reach its ids are taken unverified, otherwise they are
// verified a piece at a time, pieces sized to what is left to the stop. This
// is the package's one neighbourhood: a leaf in reach is one that NearLeaves
// lists, so with no stop buf ends as N_Eps(q), each id once.
func (s *schedule) walk(order []reach, q geom.Point, stop int, buf []int) (_ []int, own int) {
	own = len(order[0].ids)
	for k, r := range order {
		if k == 1 {
			own = len(buf)
		}
		gap, far := gapFar(q, r.box)
		switch {
		case gap > s.eps2:
		case far <= s.eps2:
			if buf = append(buf, r.ids...); len(buf) >= stop {
				return buf, own
			}
		default:
			for mids := r.ids; len(mids) > 0; {
				piece := min(len(mids), max(8, 2*(stop-len(buf))))
				buf, mids = s.st.VerifyRangeSq(q, mids[:piece], s.eps2, buf), mids[piece:]
				if len(buf) >= stop {
					return buf, own
				}
			}
		}
	}
	return buf, own
}

// neighbours returns N_Eps(p) in w.buf: the walk from p's leaf with no stop
// (no id is listed twice, so n+1 is never reached).
func (s *schedule) neighbours(w *worker, p int) []int {
	s.near(w, int(s.leafOf[p]))
	w.buf, _ = s.walk(w.order, s.st.Point(p), s.st.Len()+1, w.buf[:0])
	return w.buf
}

// Neighbourhoods finds the ε-neighbourhood of an indexed point by its id, by
// the walk Run, the condensation and FromCores find theirs with: the point's
// own leaf, then the leaves near it. It is what OPTICS and pdbscan ask of an
// index. It holds one walk's scratch, so it serves one goroutine at a time.
type Neighbourhoods struct {
	s *schedule
	w *worker
}

// Neighbours readies the ε-neighbourhoods of idx's points at radius eps ≥ 0.
func Neighbours(idx index.Index, eps float64) *Neighbourhoods {
	s, ws := newSchedule(idx, &Result{Params: Params{Eps: eps}}, 1)
	return &Neighbourhoods{s, &ws[0]}
}

// Of returns N_Eps(p) — every id within Eps of point p in the store kernel's
// squared distance, p among them, each once, in the walk's order — in buf
// after truncating it to zero length; a nil buf asks for a fresh slice. The
// whole capacity of buf is the walk's to scribble on (the store verifier
// writes candidates past the result before it knows the verdict), so hand in
// a buffer, not a window of a slice whose tail is still in use.
func (n *Neighbourhoods) Of(p int, buf []int) []int {
	n.w.buf = buf[:0]
	return n.s.neighbours(n.w, p)
}

// count is step 1 for one leaf's objects: each walks to its ε-neighbours,
// from its own leaf, then from the near ones, and stops at MinPts; a
// non-core object keeps them all. Then each core object is united with the
// core objects among its first keep neighbours in the leaf, and the leaf is
// paired with itself unless that left one root: trees of this leaf's objects
// alone, which no other worker touches.
func (s *schedule) count(w *worker, leaf int) {
	s.near(w, leaf)
	ids := w.order[0].ids
	for i, p := range ids {
		buf, own := s.walk(w.order, s.st.Point(p), s.minPts, w.buf[:0])
		if w.buf = buf; len(buf) < s.minPts {
			s.parent[p] = cluster.Noise
			w.sparse = append(w.sparse, int32(p), int32(len(buf)))
			for _, q := range buf {
				w.sparse = append(w.sparse, int32(q))
			}
			continue
		}
		s.core[p], s.parent[p] = true, cluster.ID(p)
		for k := range keep {
			w.kept[keep*i+k] = int32(buf[min(k, own-1, len(buf)-1)])
		}
	}
	for i, p := range ids {
		for _, q := range w.kept[keep*i : keep*(i+1)] {
			if s.core[p] && s.core[q] {
				s.union(int32(p), q)
			}
		}
	}
	if s.rep[leaf] = s.shared(leaf); s.rep[leaf] == mixed {
		s.pair(w, leaf, leaf, false)
		s.rep[leaf] = s.shared(leaf)
	}
}

// find returns the root of core object x, halving the path.
func (s *schedule) find(x int32) int32 {
	for s.parent[x] != cluster.ID(x) {
		s.parent[x] = s.parent[s.parent[x]]
		x = int32(s.parent[x])
	}
	return x
}

// union joins the trees of core objects a and b; the lower root wins, so a
// cluster's root is its lowest core id whatever the order of the unions.
func (s *schedule) union(a, b int32) {
	if ra, rb := s.find(a), s.find(b); ra < rb {
		s.parent[rb] = cluster.ID(ra)
	} else if rb < ra {
		s.parent[ra] = cluster.ID(rb)
	}
}

// link is step 2: each pair of near leaves with core objects is visited
// unless those share one root (rep, shared).
func (s *schedule) link(w *worker) {
	rep := s.rep
	for l := range rep {
		for _, m := range s.leaves.NearLeaves(l, s.eps, w.near[:0]) {
			if int(m) > l && rep[l] != noCores && rep[m] != noCores && (rep[l] == mixed || rep[m] == mixed || s.find(rep[l]) != s.find(rep[m])) {
				s.pair(w, l, int(m), rep[l] >= 0 && rep[m] >= 0)
				if rep[l] == mixed {
					rep[l] = s.shared(l)
				}
				if rep[m] == mixed {
					rep[m] = s.shared(int(m))
				}
			}
		}
	}
}

// What shared says of a leaf instead of a core object.
const (
	noCores = -2
	mixed   = -1 // its core objects have more than one root
)

// shared returns a core object of the leaf whose root all of the leaf's core
// objects share, or mixed, or noCores.
func (s *schedule) shared(leaf int) int32 {
	first, root := int32(noCores), int32(-1)
	for _, p := range s.leaf[leaf].ids {
		if !s.core[p] {
			continue
		}
		if r := s.find(int32(p)); root < 0 {
			first, root = int32(p), r
		} else if r != root {
			return mixed
		}
	}
	return first
}

// pair unites the core objects of leaf a with those of leaf b within Eps of
// them that do not yet share their root: for each core object of a in reach
// of b's box, those of b under another root go through the store kernel.
// When each leaf's core objects share one root (uniform), all of b's are
// under another, and one union is all.
func (s *schedule) pair(w *worker, a, b int, uniform bool) {
	aIDs, bIDs, bBox := s.leaf[a].ids, s.leaf[b].ids, s.leaf[b].box
	w.cores, w.roots = w.cores[:0], w.roots[:0]
	for _, q := range bIDs {
		if s.core[q] {
			w.cores, w.roots = append(w.cores, q), append(w.roots, s.find(int32(q)))
		}
	}
	for _, p := range aIDs {
		if !s.core[p] {
			continue
		}
		q, cand := s.st.Point(p), w.cores
		if gap, _ := gapFar(q, bBox); gap > s.eps2 {
			continue
		}
		if !uniform {
			rp := s.find(int32(p))
			cand = w.cand[:0]
			for k, r := range w.roots {
				if r != rp {
					cand = append(cand, w.cores[k])
				}
			}
		}
		if w.out = s.st.VerifyRangeSq(q, cand, s.eps2, w.out[:0]); len(w.out) == 0 {
			continue
		}
		for _, r := range w.out {
			s.union(int32(p), int32(r))
		}
		if uniform {
			return
		}
		for k, r := range w.cores {
			w.roots[k] = s.find(int32(r))
		}
	}
}
