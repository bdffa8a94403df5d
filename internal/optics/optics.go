// Package optics implements OPTICS (Ankerst, Breunig, Kriegel, Sander —
// SIGMOD 1999). Section 6 of the DBDC paper discusses OPTICS as an
// alternative to DBSCAN for building the global model: one OPTICS run over
// the local representatives yields the clustering for every Eps_global ≤
// Eps at once, so the server can inspect the hierarchy without re-running
// the clustering. This package provides the cluster ordering, reachability
// plot and the ExtractDBSCAN procedure from the OPTICS paper.
package optics

import (
	"container/heap"
	"math"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// Undefined marks an undefined reachability or core distance (no
// predecessor, or fewer than MinPts neighbors within the generating Eps).
var Undefined = math.Inf(1)

// Entry is one position of the cluster ordering.
type Entry struct {
	// Object is the object index.
	Object int
	// Reachability is the reachability distance at which the object was
	// reached; Undefined for the first object of each connected component.
	Reachability float64
	// CoreDist is the object's core distance, Undefined for non-core.
	CoreDist float64
}

// Result is the OPTICS cluster ordering with reachability information.
type Result struct {
	Params dbscan.Params
	// Order lists every object exactly once, in cluster order.
	Order []Entry
}

// Run computes the OPTICS ordering of the points held by idx with the
// generating parameters Eps and MinPts. Eps bounds the reachability values
// that can be resolved; MinPts controls the density estimate.
func Run(idx index.Index, params dbscan.Params) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := idx.Len()
	st := idx.Store()
	res := &Result{Params: params, Order: make([]Entry, 0, n)}
	processed := make([]bool, n)
	reach := make([]float64, n)
	for i := range reach {
		reach[i] = Undefined
	}
	// coreDist returns the core distance of p given its neighborhood. The
	// distance buffer is reused across calls (kthSmallest may reorder it).
	var dists []float64
	coreDist := func(p int, neighbors []int) float64 {
		if len(neighbors) < params.MinPts {
			return Undefined
		}
		// The MinPts-smallest distance among the neighborhood (the
		// neighborhood includes p itself at distance zero).
		dists = dists[:0]
		for _, q := range neighbors {
			dists = append(dists, math.Sqrt(st.DistanceSq(p, q)))
		}
		return kthSmallest(dists, params.MinPts-1)
	}
	var seeds seedQueue
	// One reused neighborhood buffer: every neighbor list is fully consumed
	// (coreDist + update) before the next range query overwrites it.
	var nbuf []int
	for start := 0; start < n; start++ {
		if processed[start] {
			continue
		}
		// Expand a new connected component from start.
		processed[start] = true
		nbuf = idx.RangeAppend(idx.Point(start), params.Eps, nbuf)
		cd := coreDist(start, nbuf)
		res.Order = append(res.Order, Entry{Object: start, Reachability: Undefined, CoreDist: cd})
		seeds = seeds[:0]
		if cd != Undefined {
			update(st, start, cd, nbuf, processed, reach, &seeds)
		}
		for seeds.Len() > 0 {
			q := heap.Pop(&seeds).(seedItem)
			if processed[q.object] {
				continue
			}
			processed[q.object] = true
			qNeighbors := idx.RangeAppend(idx.Point(q.object), params.Eps, nbuf)
			nbuf = qNeighbors
			qcd := coreDist(q.object, qNeighbors)
			res.Order = append(res.Order, Entry{
				Object:       q.object,
				Reachability: reach[q.object],
				CoreDist:     qcd,
			})
			if qcd != Undefined {
				update(st, q.object, qcd, qNeighbors, processed, reach, &seeds)
			}
		}
	}
	return res, nil
}

// update relaxes the reachability of the unprocessed neighbors of the core
// object p and pushes them into the seed queue.
func update(st *geom.Store, p int, coreDist float64, neighbors []int, processed []bool, reach []float64, seeds *seedQueue) {
	for _, q := range neighbors {
		if processed[q] {
			continue
		}
		newReach := math.Max(coreDist, math.Sqrt(st.DistanceSq(p, q)))
		if newReach < reach[q] {
			reach[q] = newReach
			heap.Push(seeds, seedItem{object: q, reach: newReach})
		}
	}
}

// kthSmallest returns the k-th smallest value (0-based) of dists,
// rearranging the slice via quickselect.
func kthSmallest(dists []float64, k int) float64 {
	lo, hi := 0, len(dists)-1
	for lo < hi {
		pivot := dists[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for dists[i] < pivot {
				i++
			}
			for dists[j] > pivot {
				j--
			}
			if i <= j {
				dists[i], dists[j] = dists[j], dists[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return dists[k]
}

// seedItem is a priority-queue element ordered by reachability; stale
// entries (superseded by a smaller reachability) are skipped on pop via the
// processed check.
type seedItem struct {
	object int
	reach  float64
}

type seedQueue []seedItem

func (s seedQueue) Len() int { return len(s) }
func (s seedQueue) Less(i, j int) bool {
	if s[i].reach != s[j].reach {
		return s[i].reach < s[j].reach
	}
	return s[i].object < s[j].object
}
func (s seedQueue) Swap(i, j int)       { s[i], s[j] = s[j], s[i] }
func (s *seedQueue) Push(x interface{}) { *s = append(*s, x.(seedItem)) }
func (s *seedQueue) Pop() interface{} {
	old := *s
	n := len(old)
	x := old[n-1]
	*s = old[:n-1]
	return x
}

// ExtractDBSCAN derives the DBSCAN clustering for any epsPrime ≤ the
// generating Eps from the ordering, following the ExtractDBSCAN-Clustering
// procedure of the OPTICS paper. Objects whose reachability exceeds
// epsPrime start a new cluster if their core distance is within epsPrime,
// and are noise otherwise.
func (r *Result) ExtractDBSCAN(epsPrime float64) cluster.Labeling {
	labels := cluster.NewLabeling(len(r.Order))
	var current cluster.ID = -1
	var next cluster.ID
	for _, e := range r.Order {
		if e.Reachability > epsPrime {
			if e.CoreDist <= epsPrime {
				current = next
				next++
				labels[e.Object] = current
			} else {
				labels[e.Object] = cluster.Noise
			}
			continue
		}
		if current < 0 {
			// Reachable object before any cluster started (cannot happen in
			// a well-formed ordering, but stay safe).
			labels[e.Object] = cluster.Noise
			continue
		}
		labels[e.Object] = current
	}
	return labels
}

// Reachabilities returns the reachability plot values in cluster order,
// the visual artifact OPTICS is known for.
func (r *Result) Reachabilities() []float64 {
	out := make([]float64, len(r.Order))
	for i, e := range r.Order {
		out[i] = e.Reachability
	}
	return out
}
