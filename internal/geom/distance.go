package geom

import (
	"fmt"
	"math"
)

// Metric is a distance function on points. Implementations must satisfy the
// metric axioms (non-negativity, identity of indiscernibles, symmetry,
// triangle inequality) for the M-tree and for DBSCAN's correctness arguments
// to hold.
type Metric interface {
	// Distance returns the distance between p and q.
	Distance(p, q Point) float64
	// Name returns a short stable identifier, e.g. "euclidean".
	Name() string
}

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

// Name implements Metric.
func (Euclidean) Name() string { return "euclidean" }

// Manhattan is the L1 metric.
type Manhattan struct{}

// Distance returns the L1 distance between p and q.
func (Manhattan) Distance(p, q Point) float64 {
	if debugChecks {
		mustSameDim(p, q)
	}
	q = q[:len(p)]
	var sum float64
	for i := range p {
		sum += math.Abs(p[i] - q[i])
	}
	return sum
}

// Name implements Metric.
func (Manhattan) Name() string { return "manhattan" }

// Chebyshev is the L∞ metric.
type Chebyshev struct{}

// Distance returns the L∞ distance between p and q.
func (Chebyshev) Distance(p, q Point) float64 {
	if debugChecks {
		mustSameDim(p, q)
	}
	q = q[:len(p)]
	var max float64
	for i := range p {
		d := math.Abs(p[i] - q[i])
		if d > max {
			max = d
		}
	}
	return max
}

// Name implements Metric.
func (Chebyshev) Name() string { return "chebyshev" }

// Minkowski is the Lp metric for a caller-chosen order P >= 1.
type Minkowski struct {
	// P is the order of the metric; values below 1 violate the triangle
	// inequality and are rejected by Distance.
	P float64
}

// Distance returns the Lp distance between p and q.
func (m Minkowski) Distance(p, q Point) float64 {
	if m.P < 1 {
		panic(fmt.Sprintf("geom: Minkowski order %v < 1 is not a metric", m.P))
	}
	mustSameDim(p, q)
	var sum float64
	for i := range p {
		sum += math.Pow(math.Abs(p[i]-q[i]), m.P)
	}
	return math.Pow(sum, 1/m.P)
}

// Name implements Metric.
func (m Minkowski) Name() string { return fmt.Sprintf("minkowski-%g", m.P) }

// SquaredEuclidean returns the squared L2 distance. It is not a metric (the
// triangle inequality fails) but is the cheap comparison kernel used by
// k-means assignment and by index pruning, where only the ordering of
// distances matters. Equivalent to Euclidean{}.DistanceSq.
func SquaredEuclidean(p, q Point) float64 {
	return Euclidean{}.DistanceSq(p, q)
}

// MetricByName returns the built-in metric with the given name.
// Recognised names: "euclidean", "manhattan", "chebyshev".
func MetricByName(name string) (Metric, error) {
	switch name {
	case "euclidean", "":
		return Euclidean{}, nil
	case "manhattan":
		return Manhattan{}, nil
	case "chebyshev":
		return Chebyshev{}, nil
	default:
		return nil, fmt.Errorf("geom: unknown metric %q", name)
	}
}
