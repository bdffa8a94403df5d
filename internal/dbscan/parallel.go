package dbscan

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/index"
)

// RunParallel clusters the points held by idx with a partition-and-merge
// DBSCAN. Phase 1 issues the ε-range query for each object (the entirety of
// DBSCAN's cost model) from Options.Workers goroutines: every worker owns a
// contiguous slice of the object range and calls index.RangeIntoID on idx.
// The index kind is the caller's choice and is honoured at every worker
// count — RunParallel builds no index of its own, so whatever makes idx fast
// or slow sequentially does the same in parallel.
//
// The clustering is reconstructed from the recorded core adjacency with a
// union-find over core points. The merge itself runs in parallel too —
// workers replay their own adjacency through a lock-free union-find — with
// only the final numbering pass sequential.
//
// Result guarantees relative to the sequential Run:
//
//   - Core flags are identical (|N_Eps(p)| ≥ MinPts is order-free).
//   - The core partition is identical: two core points share a cluster iff
//     they are density-connected, and clusters are numbered by their lowest
//     core-point index — exactly the order in which the sequential scan
//     first reaches each cluster. Labels of core points are therefore
//     byte-identical to Run's.
//   - RangeQueries accounting is exact: exactly one region query per object,
//     plus one per selected specific core point when CollectSpecificCores is
//     set. Without CollectSpecificCores the count is identical to Run's;
//     with it, the totals can differ by the size difference of the two
//     (equally valid) specific core sets.
//   - Border points (non-core members) are assigned to the cluster of their
//     lowest-index core neighbor. Sequential DBSCAN assigns whichever
//     cluster expands into them first; for border points in reach of a
//     single cluster — the overwhelming majority — the two rules coincide.
//     The tie rule is deterministic, so repeated parallel runs agree with
//     each other regardless of worker count. Noise is identical (a non-core
//     point with no core neighbor is noise under both rules).
//   - With CollectSpecificCores, the specific core points are selected by
//     the same greedy coverage rule (Definition 6) but in ascending core
//     index order per cluster rather than expansion order, so the selected
//     set may differ from Run's while remaining a valid complete set;
//     SpecificEps follows Definition 7 exactly.
//
// Determinism under concurrency: the merge-phase union-find attaches the
// larger root under the smaller via compare-and-swap, so the lowest index of
// a component can never acquire a parent regardless of interleaving; the
// per-object lowest-core-neighbor record merges by minimum, which is
// commutative across workers. The components (and with them every label)
// are a pure function of the input, whatever the worker count.
//
// Workers ≤ 0 selects GOMAXPROCS. The index must be safe for concurrent
// readers, which every index in this module is after construction.
func RunParallel(idx index.Index, params Params, opts Options) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := idx.Len()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("dbscan: RunParallel supports at most %d objects, got %d", math.MaxInt32, n)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
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
	if n == 0 {
		return res, nil
	}

	// Phase 1 — parallel region queries. Each worker fills its own arena:
	// of each core object's neighborhood only the forward half (j > i) in a
	// flat arena (the neighbor relation is symmetric, so every core-core edge
	// reappears from its other endpoint and the merge can afford to skip the
	// backward half), and a per-object lowest-index core neighbor for the
	// border rule. Core flags are disjoint writes — each object is owned by
	// exactly one worker.
	arenas := make([]arena, workers)
	phase1(idx, params, res, arenas)

	// Phase 2 — parallel merge. Union-find over core-point adjacency: two
	// core points within Eps of each other are density-connected, and every
	// density-connection between cores decomposes into such hops, so the
	// components of this graph are exactly the core partition of sequential
	// DBSCAN. Every worker replays its own arena (cache-resident from phase
	// 1) against a shared lock-free union-find; core flags are frozen at the
	// phase barrier, so the core[j] filter needs no synchronisation.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for {
			p := atomic.LoadInt32(&parent[x])
			if p == x {
				return x
			}
			if gp := atomic.LoadInt32(&parent[p]); gp != p {
				// Path halving; best-effort, losing the race is harmless.
				atomic.CompareAndSwapInt32(&parent[x], p, gp)
				x = gp
			} else {
				x = p
			}
		}
	}
	union := func(a, b int32) {
		for {
			ra, rb := find(a), find(b)
			if ra == rb {
				return
			}
			if ra > rb { // the smaller index stays root: deterministic components
				ra, rb = rb, ra
			}
			if atomic.CompareAndSwapInt32(&parent[rb], rb, ra) {
				return
			}
		}
	}
	replay := func(a *arena) {
		for t := 0; t+1 < len(a.offsets); t++ {
			i := int32(a.lo + t)
			if !res.Core[i] {
				continue
			}
			for _, j := range a.flat[a.offsets[t]:a.offsets[t+1]] {
				if res.Core[j] {
					union(i, j)
				}
			}
		}
	}
	if workers == 1 {
		replay(&arenas[0])
	} else {
		var wg sync.WaitGroup
		for w := range arenas {
			wg.Add(1)
			go func(a *arena) {
				defer wg.Done()
				replay(a)
			}(&arenas[w])
		}
		wg.Wait()
	}

	// Phase 3 — sequential numbering and labeling. Each worker's minCore
	// holds the lowest-index core neighbor it observed per object; the
	// global minimum across workers is the border tie rule's core neighbor.
	// Scanning ascending assigns each component its id at the component's
	// lowest core index, which is the order the sequential scan discovers
	// clusters in.
	minCoreNbr := arenas[0].minCore
	for w := 1; w < len(arenas); w++ {
		for i, v := range arenas[w].minCore {
			if v >= 0 && (minCoreNbr[i] == -1 || v < minCoreNbr[i]) {
				minCoreNbr[i] = v
			}
		}
	}
	for w := range arenas {
		res.RangeQueries += arenas[w].queries
	}
	rootID := make(map[int32]cluster.ID)
	var next cluster.ID
	for i := 0; i < n; i++ {
		if !res.Core[i] {
			continue
		}
		r := find(int32(i))
		id, ok := rootID[r]
		if !ok {
			id = next
			next++
			rootID[r] = id
		}
		res.Labels[i] = id
	}
	for i := 0; i < n; i++ {
		if res.Core[i] {
			continue
		}
		if c := minCoreNbr[i]; c >= 0 {
			res.Labels[i] = rootID[find(c)]
		} else {
			res.Labels[i] = cluster.Noise
		}
	}

	// Phase 4 — specific core points (Definition 6) by greedy coverage in
	// ascending core index order, then specific ε-ranges (Definition 7).
	// Clusters condense independently, so the phase parallelises over
	// clusters with results identical to the sequential fold; see
	// condenseSpecificCores.
	if opts.CollectSpecificCores {
		res.condenseSpecificCores(idx, workers)
	}
	return res, nil
}

// arena is one worker's phase-1 record: the contiguous object range it
// queried and the core adjacency it observed, replayed against the
// union-find in phase 2.
type arena struct {
	lo, hi  int     // owned object range [lo, hi)
	offsets []int32 // offsets[t..t+1] frame the forward neighbors of object lo+t in flat
	flat    []int32 // forward (j > i) neighbor indexes of core objects
	minCore []int32 // per-object lowest-index core neighbor this worker observed, -1 if none
	queries int
}

// phase1 runs the region queries over contiguous chunks of the object range:
// each worker issues exactly one ε-range query per owned object through
// index.RangeIntoID with a worker-local reused buffer and sets the core flag
// (disjoint writes, no locking). A worker scans its chunk in ascending
// order, so the first core object that reports j as a neighbor is the
// worker's lowest-index core neighbor of j — one write into the worker-local
// minCore array.
func phase1(idx index.Index, params Params, res *Result, arenas []arena) {
	n := idx.Len()
	workers := len(arenas)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		arenas[w].lo, arenas[w].hi = w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(a *arena) {
			defer wg.Done()
			a.offsets = make([]int32, 1, a.hi-a.lo+1)
			a.minCore = make([]int32, n)
			for i := range a.minCore {
				a.minCore[i] = -1
			}
			var buf []int
			for i := a.lo; i < a.hi; i++ {
				buf = index.RangeIntoID(idx, i, params.Eps, buf)
				a.queries++
				if len(buf) >= params.MinPts {
					res.Core[i] = true
					// Grow the arena once per order of magnitude instead of
					// per append: reserve from the running average.
					if free := cap(a.flat) - len(a.flat); free < len(buf) {
						avg := (len(a.flat) + len(buf)) / (i - a.lo + 1)
						want := len(a.flat) + (a.hi-i)*(avg+1)
						if want < 2*cap(a.flat) {
							want = 2 * cap(a.flat)
						}
						grown := make([]int32, len(a.flat), want)
						copy(grown, a.flat)
						a.flat = grown
					}
					for _, v := range buf {
						if v > i {
							a.flat = append(a.flat, int32(v))
						}
						if v != i && a.minCore[v] == -1 {
							a.minCore[v] = int32(i) // ascending scan: first write is the chunk minimum
						}
					}
				}
				a.offsets = append(a.offsets, int32(len(a.flat)))
			}
		}(&arenas[w])
	}
	wg.Wait()
}
