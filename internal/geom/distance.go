package geom

import "math"

// Euclidean is the L2 metric. Its zero value is ready to use.
type Euclidean struct{}

// Distance returns the L2 distance between p and q.
func (Euclidean) Distance(p, q Point) float64 {
	return math.Sqrt(Euclidean{}.DistanceSq(p, q))
}

// DistanceSq returns the squared L2 distance, sqrt-free. Because x ↦ x² is
// monotone on non-negative values, dist(p, q) ≤ eps is decided as
// DistanceSq(p, q) ≤ eps·eps — the form every Euclidean range query uses.
// Dimensions are validated at index build time (or with -tags
// dbdc_debugchecks); a shorter q panics loudly inside the kernel's reslice.
// The computation is dispatched by stride (see kernels_dispatch.go) and is
// bit-identical to the scalar loop for every input.
func (Euclidean) DistanceSq(p, q Point) float64 {
	if debugChecks {
		mustSameDim(p, q)
	}
	return distSqKernel(p, q)
}

// SquaredEuclidean returns the squared L2 distance. It is not a metric (the
// triangle inequality fails) but is the cheap comparison kernel used by
// k-means assignment and by index pruning, where only the ordering of
// distances matters. Equivalent to Euclidean{}.DistanceSq.
func SquaredEuclidean(p, q Point) float64 {
	return Euclidean{}.DistanceSq(p, q)
}
