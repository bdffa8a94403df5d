package index

import (
	"sort"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// Linear is the exhaustive-scan index: every query compares against every
// point. It supports arbitrary metrics, has zero build cost, and serves as
// the correctness oracle the tree indexes are property-tested against.
type Linear struct {
	pts    []geom.Point
	metric geom.Metric
	// store is the flat backing store of a Euclidean index, nil under any
	// other metric: the scan then runs on the fused strided verification
	// kernel (contiguous rows, no pointer chase per point).
	store *geom.Store
}

// NewLinear builds a linear index over pts. A nil metric defaults to
// Euclidean, under which pts are copied once into a flat store (see
// NewLinearStore); under any other metric the point slice is retained, not
// copied, and callers must not mutate it afterwards. Mixed or zero
// dimensionality is an error.
func NewLinear(pts []geom.Point, metric geom.Metric) (*Linear, error) {
	st, err := storeFor(pts, metric)
	if err != nil {
		return nil, err
	}
	if st != nil {
		return NewLinearStore(st, metric), nil
	}
	return &Linear{pts: pts, metric: metric}, nil
}

// NewLinearStore builds a linear index over the points of a flat store.
// Point(i) serves zero-copy views into it; under the Euclidean metric the
// store is retained and the scan loop runs on the strided Store kernels.
func NewLinearStore(st *geom.Store, metric geom.Metric) *Linear {
	metric, kept := retained(st, metric)
	return &Linear{pts: st.Views(), metric: metric, store: kept}
}

// Store implements StoreBacked.
func (l *Linear) Store() *geom.Store { return l.store }

// Len implements Index.
func (l *Linear) Len() int { return len(l.pts) }

// Point implements Index.
func (l *Linear) Point(i int) geom.Point { return l.pts[i] }

// Metric implements Index.
func (l *Linear) Metric() geom.Metric { return l.metric }

// Range implements Index.
func (l *Linear) Range(q geom.Point, eps float64) []int {
	return l.RangeAppend(q, eps, nil)
}

// RangeAppend implements RangeAppender. It is allocation-free when buf has
// capacity.
func (l *Linear) RangeAppend(q geom.Point, eps float64, buf []int) []int {
	out := buf[:0]
	if l.store != nil {
		// Fused strided scan: the interval verification kernel streams the
		// flat buffer and thresholds in squared space in one pass —
		// identical decisions to testing rows one at a time.
		return l.store.VerifyIntervalSq(q, 0, l.store.Len(), eps*eps, out)
	}
	for i, p := range l.pts {
		if l.metric.Distance(q, p) <= eps {
			out = append(out, i)
		}
	}
	return out
}

// RangeAppendID implements IDRangeAppender: the query row's zero-copy view
// feeds the same scan as RangeAppend.
func (l *Linear) RangeAppendID(i int, eps float64, buf []int) []int {
	return l.RangeAppend(l.pts[i], eps, buf)
}

// KNN implements KNNIndex.
func (l *Linear) KNN(q geom.Point, k int) []int {
	if k <= 0 {
		return nil
	}
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, len(l.pts))
	for i, p := range l.pts {
		cands[i] = cand{i, l.metric.Distance(q, p)}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].idx < cands[j].idx
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].idx
	}
	return out
}
