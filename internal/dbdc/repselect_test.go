package dbdc

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

// scanLabel is the Section 7 rule as a loop over every representative:
// r covers p iff d² ≤ ε_r², the nearest covering r wins, exact ties go to
// the lowest index. It is the oracle of FuzzRepSelector.
func scanLabel(global *model.GlobalModel, p geom.Point) cluster.ID {
	best, bestSq, found := cluster.Noise, 0.0, false
	for _, r := range global.Reps {
		d2 := (geom.Euclidean{}).DistanceSq(p, r.Point)
		if d2 <= r.Eps*r.Eps && (!found || d2 < bestSq) {
			best, bestSq, found = r.GlobalCluster, d2, true
		}
	}
	return best
}

// selectorDims are the dimensionalities FuzzRepSelector decodes into.
var selectorDims = [...]int{1, 2, 3, 8}

// encodeSelectorInput is the byte form FuzzRepSelector decodes: a dimension
// selector, the representative count (0: the empty sentinel), per
// representative its coordinates, ε_r and global cluster, then query points.
// Every number is the 8 bytes of a float64; a dimension selector with bit 2
// set makes each one byte instead (decodeSelectorInput).
func encodeSelectorInput(dimSel int, reps []model.GlobalRepresentative, queries []geom.Point) []byte {
	f64 := func(b []byte, v float64) []byte { return binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	b := []byte{byte(dimSel), byte(len(reps))}
	for _, r := range reps {
		for _, v := range r.Point {
			b = f64(b, v)
		}
		b = f64(b, r.Eps)
		b = append(b, byte(r.GlobalCluster))
	}
	for _, q := range queries {
		for _, v := range q {
			b = f64(b, v)
		}
	}
	return b
}

// decodeSelectorInput is the inverse of encodeSelectorInput; it reports
// false when the bytes run out before the last representative. In the
// one-byte form a coordinate is a signed byte over 4 and ε_r one of
// 1/8 … 4, which keeps the fuzzer among models whose balls overlap.
func decodeSelectorInput(in []byte) (int, *model.GlobalModel, []geom.Point, bool) {
	if len(in) < 2 {
		return 0, nil, nil, false
	}
	dim, k := selectorDims[int(in[0])%len(selectorDims)], int(in[1])%32
	size, coord, radius := 8, func(b []byte) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}, func(b []byte) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	if in[0]&4 != 0 {
		size = 1
		coord = func(b []byte) float64 { return float64(int8(b[0])) / 4 }
		radius = func(b []byte) float64 { return float64(b[0]%32+1) / 8 }
	}
	in = in[2:]
	next := func(f func([]byte) float64) float64 {
		v := f(in)
		in = in[size:]
		return v
	}
	global := &model.GlobalModel{MinPtsGlobal: 2}
	for ; k > 0; k-- {
		if len(in) < size*(dim+1)+1 {
			return 0, nil, nil, false
		}
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = next(coord)
		}
		eps := next(radius)
		global.Reps = append(global.Reps, rep(cluster.ID(in[0]%4), eps, p...))
		in = in[1:]
	}
	var queries []geom.Point
	for len(in) >= size*dim && len(queries) < 64 {
		q := make(geom.Point, dim)
		for d := range q {
			q[d] = next(coord)
		}
		queries = append(queries, q)
	}
	return dim, global, queries, true
}

// boundaryProbes returns, for every representative, the points at ε_r and
// at the neighbouring floats of ε_r on both sides of it, along each axis and
// along the main diagonal: where d² ≤ ε_r² turns on rounding.
func boundaryProbes(global *model.GlobalModel, dim int) []geom.Point {
	var out []geom.Point
	for _, r := range global.Reps {
		for _, e := range []float64{math.Nextafter(r.Eps, 0), r.Eps, math.Nextafter(r.Eps, math.Inf(1))} {
			for d := 0; d <= dim; d++ {
				for _, sign := range []float64{-1, 1} {
					q := append(geom.Point(nil), r.Point...)
					if d < dim {
						q[d] += sign * e
					} else {
						for j := range q {
							q[j] += sign * e / math.Sqrt(float64(dim))
						}
					}
					out = append(out, q)
				}
			}
		}
	}
	return out
}

// FuzzRepSelector holds the coverage grid to the rule it answers: for any
// model and any query point, SelectInto labels like a loop over every
// representative, and the grid keeps its memory bound.
func FuzzRepSelector(f *testing.F) {
	for dimSel, dim := range selectorDims {
		// A handful of representatives on a line, the queries between them.
		var reps []model.GlobalRepresentative
		var queries []geom.Point
		for i := range 5 {
			p := make([]float64, dim)
			p[0] = float64(i) * 0.7
			reps = append(reps, rep(cluster.ID(i/2), 0.5+0.1*float64(i), p...))
			q := make(geom.Point, dim)
			for d := range q {
				q[d] = float64(i)*0.31 - 0.2*float64(d)
			}
			queries = append(queries, q)
		}
		f.Add(encodeSelectorInput(dimSel, reps, queries))
		// One representative.
		f.Add(encodeSelectorInput(dimSel, reps[2:3], queries))
		// Coordinates near 1e6, ε near 1e-3.
		far := make([]model.GlobalRepresentative, 3)
		for i := range far {
			p := make([]float64, dim)
			for d := range p {
				p[d] = 1e6 + float64(i)*1.5e-3 + float64(d)*1e-4
			}
			far[i] = rep(cluster.ID(i%2), 1e-3*(1+0.25*float64(i)), p...)
		}
		f.Add(encodeSelectorInput(dimSel, far, nil))
		// Two representatives 1e9 apart: the grid hits its cell cap.
		a, b := make([]float64, dim), make([]float64, dim)
		b[0] = 1e9
		f.Add(encodeSelectorInput(dimSel, []model.GlobalRepresentative{rep(0, 1, a...), rep(1, 2, b...)},
			[]geom.Point{append(geom.Point(nil), a...), append(geom.Point(nil), b...)}))
		// Equidistant representatives of different clusters: the lower index
		// wins the tie.
		l, r := make([]float64, dim), make([]float64, dim)
		l[0], r[0] = -1, 1
		f.Add(encodeSelectorInput(dimSel, []model.GlobalRepresentative{rep(2, 1.5, r...), rep(1, 1.5, l...)},
			[]geom.Point{make(geom.Point, dim)}))
	}
	// Representatives up to 200 ε apart on a line: the cell cap makes the
	// grid one row of cells narrower than 2ε, and the one cell around (0, 0)
	// fits inside its ball along the line but not across it.
	f.Add(encodeSelectorInput(1, []model.GlobalRepresentative{rep(0, 1, 0, 0), rep(0, 1, 200, 0), rep(0, 0.37, -2, 0)},
		[]geom.Point{{0.7, 0.9}, {0.5, -0.5}, {200.3, 0.99}}))
	// The one-byte form: a 2-d model of overlapping balls of three clusters.
	compact := []byte{4 | 1, 12}
	for i := range 12 {
		compact = append(compact, byte(int8(i*5%17-8)), byte(int8(i*3%11-5)), byte(i*7), byte(i%3))
	}
	f.Add(append(compact, 1, 2, 3, 250, 9, 9, 0, 0, 17, 240))
	// The empty sentinel.
	f.Add(encodeSelectorInput(1, nil, []geom.Point{{0, 0}, {1, 2}}))

	f.Fuzz(func(t *testing.T, in []byte) {
		dim, global, queries, ok := decodeSelectorInput(in)
		if !ok {
			return
		}
		sel, err := NewRepSelector(global)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(global.Reps); n > 0 {
			if cells := len(sel.verdict); cells > cellsPerRep*n {
				t.Fatalf("%d cells for %d representatives", cells, n)
			}
			if len(sel.axes) > 0 && len(sel.list) > 25*n {
				t.Fatalf("%d list entries for %d representatives", len(sel.list), n)
			}
		}
		var sc RepScratch
		for _, q := range append(queries, boundaryProbes(global, dim)...) {
			if got, want := sel.SelectInto(q, &sc), scanLabel(global, q); got != want {
				t.Fatalf("SelectInto(%v) = %v, a scan over every representative says %v (reps %v)", q, got, want, global.Reps)
			}
		}
	})
}

// selectorBench is a global model of the given dimensionality and the
// points it was trained on: six Gaussian blobs and a tenth of uniform noise,
// dealt round-robin to two sites.
func selectorBench(b testing.TB, dim int) ([]geom.Point, *model.GlobalModel) {
	rng := rand.New(rand.NewSource(1))
	var pts []geom.Point
	for range 6 {
		c := make(geom.Point, dim)
		for d := range c {
			c[d] = rng.Float64() * 20
		}
		pts = append(pts, data.Blob(rng, c, 0.5, 700)...)
	}
	lo, hi := make(geom.Point, dim), make(geom.Point, dim)
	for d := range hi {
		hi[d] = 20
	}
	pts = append(pts, data.Uniform(rng, geom.NewRect(lo, hi), 420)...)
	params := dbscan.Params{Eps: 0.5, MinPts: 5}
	if dim > 2 {
		params.Eps = 1.5
	}
	_, global := roundOutcomes(b, pts, Config{Local: params})
	return pts, global
}

// BenchmarkRepSelector prices the coverage grid: building it for a global
// model, and classifying the model's training points (ns per point).
func BenchmarkRepSelector(b *testing.B) {
	for _, dim := range []int{2, 8} {
		pts, global := selectorBench(b, dim)
		b.Run(fmt.Sprintf("build/dim=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := NewRepSelector(global); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(global.Reps)), "reps")
		})
		b.Run(fmt.Sprintf("classify/dim=%d", dim), func(b *testing.B) {
			sel, err := NewRepSelector(global)
			if err != nil {
				b.Fatal(err)
			}
			var sc RepScratch
			for b.Loop() {
				for _, p := range pts {
					sel.SelectInto(p, &sc)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
		})
	}
}
