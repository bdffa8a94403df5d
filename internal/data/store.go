package data

import (
	"math"
	"math/rand"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// The Append* generators write straight into the flat backing array of a
// geom.Store instead of allocating a []float64 per point. Bulk generation is
// then one contiguous buffer fill, which is the layout every store-backed
// index builds from without re-copying; a slice-shaped consumer takes the
// store's Views().

// AppendBlob appends n points drawn from an isotropic Gaussian around center
// with the given standard deviation. The store's stride must match the
// center's dimensionality.
func AppendBlob(st *geom.Store, rng *rand.Rand, center geom.Point, stddev float64, n int) {
	st.Reserve(st.Len() + n)
	for i := 0; i < n; i++ {
		row := st.AppendZero()
		for d := range row {
			row[d] = center[d] + rng.NormFloat64()*stddev
		}
	}
}

// AppendUniform appends n points distributed uniformly over the rectangle.
func AppendUniform(st *geom.Store, rng *rand.Rand, rect geom.Rect, n int) {
	st.Reserve(st.Len() + n)
	for i := 0; i < n; i++ {
		row := st.AppendZero()
		for d := range row {
			row[d] = rect.Min[d] + rng.Float64()*(rect.Max[d]-rect.Min[d])
		}
	}
}

// AppendRing appends n points on an annulus around (cx, cy) with the given
// mean radius and radial jitter. The store's stride must be 2.
func AppendRing(st *geom.Store, rng *rand.Rand, cx, cy, radius, jitter float64, n int) {
	st.Reserve(st.Len() + n)
	for i := 0; i < n; i++ {
		angle := rng.Float64() * 2 * math.Pi
		r := radius + rng.NormFloat64()*jitter
		st.AppendCoords(cx+r*math.Cos(angle), cy+r*math.Sin(angle))
	}
}
