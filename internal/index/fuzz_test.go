package index_test

import (
	"math"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// fuzzPoints decodes a fuzz input into a point set and a radius. data[0]
// picks the dimensionality (1–4) and data[1] the radius, in steps of 1/8 up
// to 31.875 — wider than the whole bounding box of a small set. The rest is
// points: a header byte, which gives the point one coordinate more than the
// others when its low four bits are all set, then one byte per coordinate:
// 255 is NaN, 254 +Inf, 253 −Inf, and any other b is (b−128)/4, a lattice on
// which boundary ties at exactly the radius are common.
func fuzzPoints(data []byte) ([]geom.Point, float64) {
	if len(data) < 2 {
		return nil, 1
	}
	dim, eps := 1+int(data[0]%4), float64(data[1])/8
	var pts []geom.Point
	for rest := data[2:]; len(rest) > 0 && len(pts) < 256; {
		n := dim
		if rest[0]&15 == 15 {
			n++
		}
		rest = rest[1:]
		if len(rest) < n {
			break
		}
		p := make(geom.Point, n)
		for d, b := range rest[:n] {
			switch b {
			case 255:
				p[d] = math.NaN()
			case 254:
				p[d] = math.Inf(1)
			case 253:
				p[d] = math.Inf(-1)
			default:
				p[d] = (float64(b) - 128) / 4
			}
		}
		pts = append(pts, p)
		rest = rest[n:]
	}
	return pts, eps
}

// FuzzBuildRejectsOrAgrees: over any decoded point set — NaN and ±Inf
// coordinates, mixed dimensionality and radii past the bounding box included
// — either every kind refuses to build, or every kind builds and every id's
// ε-neighbourhood over its leaves is the index-free oracle's.
func FuzzBuildRejectsOrAgrees(f *testing.F) {
	for _, seed := range [][]byte{
		{},                          // no points
		{0, 8, 0, 128},              // one point
		{1, 8, 0, 128, 128, 0, 130}, // a truncated second point, dropped
		{1, 8, 0, 128, 128, 0, 132, 128, 0, 128, 136},                                // 2-d, ties at ε = 1
		{0, 2, 0, 128, 0, 129, 0, 130, 0, 131, 0, 132, 0, 133, 0, 134},               // 1-d lattice, ties at ε = 1/4
		{3, 16, 0, 128, 128, 128, 128, 0, 136, 128, 128, 128, 0, 128, 128, 128, 136}, // 4-d, ties at ε = 2
		{0, 255, 0, 100, 0, 140, 0, 160},                                             // 1-d, ε past the box
		{2, 255, 0, 120, 120, 120, 0, 136, 136, 136},                                 // 3-d, ε past the box
		{2, 4, 0, 10, 10, 10, 0, 10, 10, 10, 0, 10, 10, 10},                          // 3-d duplicates
		{3, 0, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 4, 3, 2, 1, 0, 9, 9},                 // ε = 0
		{1, 8, 0, 128, 128, 0, 255, 128},                                             // NaN
		{1, 8, 0, 128, 254, 0, 253, 128},                                             // ±Inf
		{1, 8, 0, 253, 253},                                                          // −Inf alone
		{1, 8, 0, 128, 128, 15, 128, 128, 128},                                       // 2-d, then 3-d
		{1, 8, 15, 128, 128, 128, 0, 128, 128},                                       // 3-d, then 2-d
		{1, 8, 0, 128, 128, 15, 128, 255, 128},                                       // mixed and NaN
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, eps := fuzzPoints(data)
		_, err := index.Build(index.KindLinear, pts, geom.Euclidean{}, eps)
		for _, kind := range index.Kinds() {
			idx, kerr := index.Build(kind, pts, geom.Euclidean{}, eps)
			if (kerr == nil) != (err == nil) {
				t.Fatalf("%s: build error %v, linear scan's %v", kind, kerr, err)
			}
			if err == nil {
				checkOracle(t, idx, pts, eps)
			}
		}
	})
}
