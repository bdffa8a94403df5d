package optics

import (
	"fmt"
	"sort"
)

// SuggestCut proposes an extraction threshold from the reachability plot.
// The bulk of the reachability values are intra-cluster distances and the
// cluster-to-cluster jumps sit above them, but both populations spread, so
// neither a widest-gap rule (confused by spread-out jumps) nor an absolute
// outlier fence (confused by the intra tail) is reliable. The boundary has
// a distinctive scale-free signature instead: the largest RELATIVE gap
// between consecutive sorted values above the bulk (≥ Q3). The suggestion
// is the midpoint of that gap. A maximum ratio below 2 means one density
// level (no jumps); any cut slightly above the maximum then keeps
// everything connected. Undefined (infinite) reachabilities are ignored;
// an error is returned when fewer than minClusterSize+1 finite values
// exist.
//
// The heuristic targets the MOST PROMINENT density gap. Data with nested,
// multi-scale separations (a ring around a cluster next to a far-away
// cluster) has several valid cuts; the suggestion then resolves the
// dominant one and merges across the subtler ones. For such data inspect
// the reachability plot (viz.ReachabilityPlot) or extract at several cuts
// with ExtractDBSCAN instead of trusting a single suggestion.
func (r *Result) SuggestCut(minClusterSize int) (float64, error) {
	if minClusterSize < 1 {
		minClusterSize = 1
	}
	var vals []float64
	for _, e := range r.Order {
		if e.Reachability != Undefined {
			vals = append(vals, e.Reachability)
		}
	}
	if len(vals) <= minClusterSize {
		return 0, fmt.Errorf("optics: only %d finite reachabilities, need more than %d",
			len(vals), minClusterSize)
	}
	sort.Float64s(vals)
	q3 := vals[len(vals)*3/4]
	bestRatio, bestCut := 0.0, 0.0
	for i := minClusterSize; i < len(vals); i++ {
		lo, hi := vals[i-1], vals[i]
		if lo < q3 || lo <= 0 {
			continue
		}
		if ratio := hi / lo; ratio > bestRatio {
			bestRatio = ratio
			bestCut = lo + (hi-lo)/2
		}
	}
	// A ratio below 2 is indistinguishable from the tail of one density
	// level: cut just above everything instead of splitting the tail.
	if bestRatio < 2 {
		top := vals[len(vals)-1]
		if top == 0 {
			top = 1
		}
		return top * 1.05, nil
	}
	return bestCut, nil
}
