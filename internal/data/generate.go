// Package data synthesizes the evaluation data sets of the DBDC paper and
// provides the partitioners that distribute them over client sites. The
// paper's three 2-dimensional test sets are not published, so this package
// generates analogues matching their stated cardinalities and
// characteristics (Section 9, Figure 6): A — randomly generated clusters,
// 8700 objects by default and scalable for the cardinality sweeps; B —
// 4000 objects of very noisy data; C — 1021 objects in 3 clusters. All
// generators are deterministic given a seed.
package data

import (
	"math"
	"math/rand"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// Blob appends n points drawn from an isotropic Gaussian around center with
// the given standard deviation.
func Blob(rng *rand.Rand, center geom.Point, stddev float64, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, len(center))
		for d := range p {
			p[d] = center[d] + rng.NormFloat64()*stddev
		}
		pts[i] = p
	}
	return pts
}

// Uniform returns n points distributed uniformly over the rectangle.
func Uniform(rng *rand.Rand, rect geom.Rect, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, rect.Dim())
		for d := range p {
			p[d] = rect.Min[d] + rng.Float64()*(rect.Max[d]-rect.Min[d])
		}
		pts[i] = p
	}
	return pts
}

// Ring returns n points on an annulus around (cx, cy) with the given mean
// radius and radial jitter — a non-globular shape k-means cannot capture
// but DBSCAN can (the paper's Section 4 motivation).
func Ring(rng *rand.Rand, cx, cy, radius, jitter float64, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		angle := rng.Float64() * 2 * math.Pi
		r := radius + rng.NormFloat64()*jitter
		pts[i] = geom.Point{cx + r*math.Cos(angle), cy + r*math.Sin(angle)}
	}
	return pts
}
