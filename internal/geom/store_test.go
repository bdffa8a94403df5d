package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bitsEq compares two float64 values bit for bit — the only comparison that
// holds NaN results to the "same computation, same result" standard the
// strided kernels promise.
func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestStoreKernelsBitIdentical pins the core contract of the flat store:
// DistanceSq and DistanceSqTo are bit-identical to the slice kernels they
// replace, across dimensionalities, for ordinary coordinates, and the square
// root of DistanceSq is Euclidean.Distance. Bit identity — not approximate
// equality — is what lets store-backed indexes produce byte-identical
// clusterings.
func TestStoreKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := Euclidean{}
	for _, dim := range []int{1, 2, 3, 5, 16} {
		pts := make([]Point, 64)
		for i := range pts {
			p := make(Point, dim)
			for d := range p {
				// Mix magnitudes so summation-order differences would show.
				p[d] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
			}
			pts[i] = p
		}
		q := make(Point, dim)
		for d := range q {
			q[d] = (rng.Float64() - 0.5) * 100
		}
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			st, err := FromPoints(pts)
			if err != nil {
				t.Fatalf("FromPoints: %v", err)
			}
			for i := range pts {
				if got, want := st.DistanceSqTo(i, q), e.DistanceSq(q, pts[i]); !bitsEq(got, want) {
					t.Fatalf("DistanceSqTo(%d, q) = %v, Euclidean.DistanceSq(q, p) = %v", i, got, want)
				}
				if got, want := st.DistanceSqTo(i, q), SquaredEuclidean(q, pts[i]); !bitsEq(got, want) {
					t.Fatalf("DistanceSqTo(%d, q) = %v, SquaredEuclidean(q, p) = %v", i, got, want)
				}
				j := (i + 17) % len(pts)
				if got, want := st.DistanceSq(i, j), e.DistanceSq(pts[i], pts[j]); !bitsEq(got, want) {
					t.Fatalf("DistanceSq(%d, %d) = %v, Euclidean.DistanceSq = %v", i, j, got, want)
				}
				// The form OPTICS takes its distances in.
				if got, want := math.Sqrt(st.DistanceSq(i, j)), e.Distance(pts[i], pts[j]); !bitsEq(got, want) {
					t.Fatalf("sqrt(DistanceSq(%d, %d)) = %v, Euclidean.Distance = %v", i, j, got, want)
				}
			}
		})
	}
}

// TestStoreKernelsSpecialValues extends bit identity to the values the CSV
// loader rejects but the kernels must still propagate deterministically:
// NaN, ±Inf, signed zero, and overflow-to-Inf differences.
func TestStoreKernelsSpecialValues(t *testing.T) {
	e := Euclidean{}
	nan := math.NaN()
	inf := math.Inf(1)
	big := math.MaxFloat64
	pts := []Point{
		{nan, 0},
		{inf, -inf},
		{big, -big},
		{0, math.Copysign(0, -1)},
		{math.SmallestNonzeroFloat64, 1e308},
		{1, 2},
	}
	st, err := FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Point{{0, 0}, {nan, nan}, {-inf, inf}, {big, big}, {1, 2}}
	for _, q := range queries {
		for i := range pts {
			got, want := st.DistanceSqTo(i, q), e.DistanceSq(q, pts[i])
			if !bitsEq(got, want) {
				t.Errorf("DistanceSqTo(%d, %v) = %x, slice kernel %x", i, q, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	for i := range pts {
		for j := range pts {
			got, want := st.DistanceSq(i, j), e.DistanceSq(pts[i], pts[j])
			if !bitsEq(got, want) {
				t.Errorf("DistanceSq(%d, %d) = %x, slice kernel %x", i, j, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// FuzzStoreDistanceSq fuzzes the bit-identity contract over raw coordinate
// bits: whatever float64s come in — subnormals, NaN payloads, infinities —
// the strided kernels and the slice kernels must agree exactly. The same
// six values are additionally rearranged into dim-3 and dim-6 point pairs,
// so the fully unrolled, width-4 unrolled and scalar-tail dispatch branches
// are all exercised from the one fuzz corpus.
func FuzzStoreDistanceSq(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 2.0, 3.0, 4.0)
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1))
	f.Add(1e308, -1e308, 1e-308, -1e-308, 0.1, 0.2)
	f.Fuzz(func(t *testing.T, a0, a1, b0, b1, q0, q1 float64) {
		vals := []float64{a0, a1, b0, b1, q0, q1}
		for _, dim := range []int{2, 3, 6} {
			mk := func(start int) Point {
				p := make(Point, dim)
				for d := range p {
					p[d] = vals[(start+d)%len(vals)]
				}
				return p
			}
			pts := []Point{mk(0), mk(2)}
			st, err := FromPoints(pts)
			if err != nil {
				t.Fatal(err)
			}
			e := Euclidean{}
			q := mk(4)
			for i := range pts {
				if got, want := st.DistanceSqTo(i, q), e.DistanceSq(q, pts[i]); !bitsEq(got, want) {
					t.Fatalf("dim %d: DistanceSqTo(%d, q): %x != %x", dim, i, math.Float64bits(got), math.Float64bits(want))
				}
			}
			if got, want := st.DistanceSq(0, 1), e.DistanceSq(pts[0], pts[1]); !bitsEq(got, want) {
				t.Fatalf("dim %d: DistanceSq(0, 1): %x != %x", dim, math.Float64bits(got), math.Float64bits(want))
			}
			if got, want := st.DistanceSq(1, 0), e.DistanceSq(pts[1], pts[0]); !bitsEq(got, want) {
				t.Fatalf("dim %d: DistanceSq(1, 0): %x != %x", dim, math.Float64bits(got), math.Float64bits(want))
			}
		}
	})
}

// TestFromPointsAliasing pins the view-aliasing contract: FromPoints copies
// (the input is not retained), Point(i) views alias the backing array both
// ways, and the capacity-clipped views make append-through-view incapable of
// clobbering the next row.
func TestFromPointsAliasing(t *testing.T) {
	src := []Point{{1, 2}, {3, 4}, {5, 6}}
	st, err := FromPoints(src)
	if err != nil {
		t.Fatal(err)
	}

	// Input not retained: mutating the source must not reach the store.
	src[0][0] = -99
	if got := st.Point(0)[0]; got != 1 {
		t.Fatalf("store aliases its input: Point(0)[0] = %v after source mutation", got)
	}

	// Views alias the backing array in both directions.
	v := st.Point(1)
	st.Coords()[2] = 30 // row 1, coordinate 0
	if v[0] != 30 {
		t.Fatalf("view missed store mutation: %v", v)
	}
	v[1] = 40
	if got := st.Coords()[3]; got != 40 {
		t.Fatalf("store missed view mutation: %v", got)
	}
	if got := st.Point(1)[1]; got != 40 {
		t.Fatalf("fresh view missed earlier view mutation: %v", got)
	}

	// Capacity clipping: appending to a view reallocates instead of
	// spilling into the following row.
	grown := append(st.Point(0), 777)
	_ = grown
	if got := st.Point(1)[0]; got != 30 {
		t.Fatalf("append through view clobbered the next row: %v", got)
	}

	// Views taken before a growing Append keep their values but detach.
	before := st.Point(2)
	st.Append(Point{7, 8}) // exceeds FromPoints' exact capacity: reallocates
	st.Coords()[4] = 500   // row 2, coordinate 0, in the NEW array
	if before[0] != 5 {
		t.Fatalf("detached view lost its value: %v", before)
	}
	if st.Point(2)[0] != 500 {
		t.Fatalf("store mutation lost: %v", st.Point(2))
	}
}

// TestFromPointsErrors: empty input and mixed dimensionality are rejected
// with errors, mirroring the conditions the index builders reject.
func TestFromPointsErrors(t *testing.T) {
	if _, err := FromPoints(nil); err == nil {
		t.Error("empty point set accepted")
	}
	if _, err := FromPoints([]Point{{}}); err == nil {
		t.Error("zero-dimensional point accepted")
	}
	if _, err := FromPoints([]Point{{1, 2}, {1, 2, 3}}); err == nil {
		t.Error("mixed dimensionality accepted")
	}
}

// TestStoreBoundingRect checks the strided bounding box against the
// slice-path BoundingRect on random data, plus the empty-store panic.
func TestStoreBoundingRect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point{rng.NormFloat64() * 50, rng.NormFloat64() * 50, rng.NormFloat64()}
	}
	st, err := FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	got, want := st.BoundingRect(), BoundingRect(pts)
	for d := 0; d < 3; d++ {
		if got.Min[d] != want.Min[d] || got.Max[d] != want.Max[d] {
			t.Fatalf("store bounding rect %v/%v, slice %v/%v", got.Min, got.Max, want.Min, want.Max)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("BoundingRect of empty store did not panic")
		}
	}()
	NewStore(2, 0).BoundingRect()
}

// TestStoreIsFinite: the strided finiteness scan agrees with the per-point
// IsFinite for every special value.
func TestStoreIsFinite(t *testing.T) {
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{1, 2}, true},
		{Point{math.MaxFloat64, -math.MaxFloat64}, true},
		{Point{math.NaN(), 0}, false},
		{Point{0, math.Inf(1)}, false},
		{Point{math.Inf(-1), 0}, false},
	}
	for _, c := range cases {
		st, err := FromPoints([]Point{{0, 0}, c.p})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.IsFinite(); got != c.want {
			t.Errorf("IsFinite with %v = %v, want %v", c.p, got, c.want)
		}
		if got := c.p.IsFinite(); got != c.want {
			t.Errorf("Point.IsFinite(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}
