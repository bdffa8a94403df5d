package geom

import (
	"math"
	"math/rand"
	"testing"
)

// specialValues are the coordinates the CSV loader rejects but the kernels
// must still propagate deterministically — the values where an unrolled
// variant that reordered operations would first diverge from the scalar
// reference.
var specialValues = []float64{
	math.NaN(),
	math.Inf(1),
	math.Inf(-1),
	math.MaxFloat64,
	-math.MaxFloat64,
	math.SmallestNonzeroFloat64,
	math.Copysign(0, -1),
	0,
	1e308,
	-1e-308,
}

// bitsEqOrBothNaN is the cross-kernel comparison: separately compiled
// kernel bodies agree bit for bit on every non-NaN result, while a
// NaN-valued result may carry either operand's payload depending on the
// add-operand order the backend chose for that body (see
// kernels_dispatch.go). Same-body comparisons — batch vs one-at-a-time —
// use plain bitsEq.
func bitsEqOrBothNaN(a, b float64) bool {
	return bitsEq(a, b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestDistSqKernelMatchesScalar pins the dispatched kernel to the scalar
// reference bit for bit across every dispatch branch: the fully unrolled
// dims (2/3/4/8), the width-4 unrolled generic with every tail length
// (5..17), and the short strides that fall through to the tail loop alone.
func TestDistSqKernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for dim := 1; dim <= 17; dim++ {
		for trial := 0; trial < 32; trial++ {
			a := make([]float64, dim)
			b := make([]float64, dim)
			for d := 0; d < dim; d++ {
				// Mix magnitudes so any summation-order change would show.
				a[d] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(9)-4))
				b[d] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(9)-4))
				if trial%4 == 3 {
					// Sprinkle special values through later trials.
					if rng.Intn(3) == 0 {
						a[d] = specialValues[rng.Intn(len(specialValues))]
					}
					if rng.Intn(3) == 0 {
						b[d] = specialValues[rng.Intn(len(specialValues))]
					}
				}
			}
			got, want := distSqKernel(a, b), distSqScalar(a, b)
			if !bitsEqOrBothNaN(got, want) {
				t.Fatalf("dim %d: distSqKernel = %x, distSqScalar = %x (a=%v b=%v)",
					dim, math.Float64bits(got), math.Float64bits(want), a, b)
			}
		}
	}
}

// TestKernelWidth sanity-checks the dispatch-width report: positive
// everywhere, and in the default build matching the dispatch table (the
// scalar build reports 1 for every stride).
func TestKernelWidth(t *testing.T) {
	for dim := 1; dim <= 32; dim++ {
		w := KernelWidth(dim)
		if w < 1 || w > dim && dim > 1 {
			t.Fatalf("KernelWidth(%d) = %d", dim, w)
		}
	}
	if KernelDispatch() == "" {
		t.Fatal("KernelDispatch() is empty")
	}
}

// TestDistanceSqBatch pins the batch kernel to the one-row kernel: for any
// id list — duplicates, reversals, gathered order — out[k] must equal
// DistanceSqTo(ids[k], q) bit for bit, including NaN/Inf rows.
func TestDistanceSqBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, dim := range []int{1, 2, 3, 4, 5, 8, 11} {
		pts := make([]Point, 40)
		for i := range pts {
			p := make(Point, dim)
			for d := range p {
				p[d] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			pts[i] = p
		}
		// Row with special values.
		for d := range pts[7] {
			pts[7][d] = specialValues[d%len(specialValues)]
		}
		st, err := FromPoints(pts)
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		q := make(Point, dim)
		for d := range q {
			q[d] = rng.NormFloat64()
		}
		ids := []int{3, 7, 7, 0, 39, 12, 7, 1}
		out := make([]float64, len(ids))
		got := st.DistanceSqBatch(q, ids, out)
		if len(got) != len(ids) {
			t.Fatalf("dim %d: batch returned %d results for %d ids", dim, len(got), len(ids))
		}
		for k, id := range ids {
			if want := st.DistanceSqTo(id, q); !bitsEq(got[k], want) {
				t.Fatalf("dim %d: batch[%d] (id %d) = %x, DistanceSqTo = %x",
					dim, k, id, math.Float64bits(got[k]), math.Float64bits(want))
			}
		}
		// NaN query too: the batch must propagate it identically.
		nanq := make(Point, dim)
		for d := range nanq {
			nanq[d] = math.NaN()
		}
		got = st.DistanceSqBatch(nanq, ids, out)
		for k, id := range ids {
			if want := st.DistanceSqTo(id, nanq); !bitsEq(got[k], want) {
				t.Fatalf("dim %d: NaN-query batch[%d] = %x, DistanceSqTo = %x",
					dim, k, math.Float64bits(got[k]), math.Float64bits(want))
			}
		}
	}
}

// TestDistanceSqBatchPrefixAndPanic mirrors DistanceSqTo's edge contract: a
// query shorter than the stride compares the coordinate prefix, a longer one
// panics.
func TestDistanceSqBatchPrefixAndPanic(t *testing.T) {
	st, err := FromPoints([]Point{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 2)
	if !debugChecks { // debug builds reject any dimension mismatch outright
		got := st.DistanceSqBatch(Point{0, 0}, []int{0, 1}, out)
		for k, id := range []int{0, 1} {
			if want := st.DistanceSqTo(id, Point{0, 0}); !bitsEq(got[k], want) {
				t.Fatalf("prefix batch[%d] = %v, DistanceSqTo = %v", k, got[k], want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("over-long batch query did not panic")
		}
	}()
	st.DistanceSqBatch(Point{0, 0, 0, 0}, []int{0}, out)
}

// TestDistanceSqInterval pins the streaming interval kernel to the one-row
// kernel over every block boundary of VerifyIntervalSq's blocked scan.
func TestDistanceSqInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := make([]Point, 1200) // > 2×verifyBlock: exercises full and partial blocks
	for i := range pts {
		pts[i] = Point{rng.NormFloat64(), rng.NormFloat64()}
	}
	st, err := FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	q := Point{0.25, -0.5}
	out := make([]float64, 700)
	got := st.DistanceSqInterval(q, 100, out)
	for k := range got {
		if want := st.DistanceSqTo(100+k, q); !bitsEq(got[k], want) {
			t.Fatalf("interval[%d] = %v, DistanceSqTo(%d) = %v", k, got[k], 100+k, want)
		}
	}
}

// TestVerifyRangeSq checks the fused verification step against the direct
// per-id threshold test: same member set, cand order preserved.
func TestVerifyRangeSq(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 10, rng.Float64() * 10}
	}
	st, err := FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	q := Point{5, 5}
	eps2 := 2.0 * 2.0
	cand := rng.Perm(500)[:200]
	var out []int
	out = st.VerifyRangeSq(q, cand, eps2, out[:0])
	var want []int
	for _, id := range cand {
		if st.DistanceSqTo(id, q) <= eps2 {
			want = append(want, id)
		}
	}
	if len(out) != len(want) {
		t.Fatalf("VerifyRangeSq kept %d ids, want %d", len(out), len(want))
	}
	for k := range want {
		if out[k] != want[k] {
			t.Fatalf("VerifyRangeSq[%d] = %d, want %d (order must match cand order)", k, out[k], want[k])
		}
	}
	// A second call appending into the same buffer must keep capacity.
	before := cap(out)
	out = st.VerifyRangeSq(q, cand[:150], eps2, out[:0])
	if cap(out) != before {
		t.Fatalf("out buffer regrown: cap %d -> %d", before, cap(out))
	}
}

// TestVerifyIntervalSq checks the fused exhaustive scan against the direct
// per-row threshold test, ascending order included.
func TestVerifyIntervalSq(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := make([]Point, 1300)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 4, rng.Float64() * 4}
	}
	st, err := FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	q := Point{2, 2}
	eps2 := 0.5 * 0.5
	var out []int
	out = st.VerifyIntervalSq(q, 0, st.Len(), eps2, out[:0])
	var want []int
	for i := 0; i < st.Len(); i++ {
		if st.DistanceSqTo(i, q) <= eps2 {
			want = append(want, i)
		}
	}
	if len(out) != len(want) {
		t.Fatalf("VerifyIntervalSq kept %d ids, want %d", len(out), len(want))
	}
	for k := range want {
		if out[k] != want[k] {
			t.Fatalf("VerifyIntervalSq[%d] = %d, want %d", k, out[k], want[k])
		}
	}
}

// FuzzDistanceSqBatch fuzzes the batched-vs-scalar bit-identity contract
// over raw coordinate bits and strides 1..5 (odd strides take the generic
// tail path, 2/3/4 the unrolled bodies): three rows and a query are built
// from the fuzzed values, and DistanceSqBatch / DistanceSqInterval must
// agree with one-at-a-time DistanceSqTo bit for bit on every row — NaN
// payloads and infinities included (same shared kernel body, so no
// latitude) — and with the scalar reference kernel up to NaN payload
// (separately compiled body; see bitsEqOrBothNaN).
func FuzzDistanceSqBatch(f *testing.F) {
	f.Add(uint8(2), 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
	f.Add(uint8(3), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Copysign(0, -1), 1e308, -1e-308, 0.5)
	f.Add(uint8(5), math.NaN(), math.NaN(), math.NaN(), 1.0, -1.0, math.Inf(1), 2.0, 3.0, 4.0)
	f.Add(uint8(1), 1e-320, -1e-320, 4.9e-324, 0.0, math.MaxFloat64, -math.MaxFloat64, 1.5, 2.5, 3.5)
	f.Fuzz(func(t *testing.T, dimRaw uint8, v0, v1, v2, v3, v4, v5, v6, v7, v8 float64) {
		dim := 1 + int(dimRaw)%5
		vals := []float64{v0, v1, v2, v3, v4, v5, v6, v7, v8}
		row := func(start int) Point {
			p := make(Point, dim)
			for d := range p {
				p[d] = vals[(start+d)%len(vals)]
			}
			return p
		}
		pts := []Point{row(0), row(3), row(6)}
		st, err := FromPoints(pts)
		if err != nil {
			t.Fatal(err)
		}
		q := row(5)
		ids := []int{0, 1, 2, 2, 0}
		out := make([]float64, len(ids))
		got := st.DistanceSqBatch(q, ids, out)
		for k, id := range ids {
			want := st.DistanceSqTo(id, q)
			if !bitsEq(got[k], want) {
				t.Fatalf("dim %d: batch[%d] (id %d) = %x, DistanceSqTo = %x",
					dim, k, id, math.Float64bits(got[k]), math.Float64bits(want))
			}
			if ref := distSqScalar(q, pts[id]); !bitsEqOrBothNaN(got[k], ref) {
				t.Fatalf("dim %d: batch[%d] (id %d) = %x, scalar reference = %x",
					dim, k, id, math.Float64bits(got[k]), math.Float64bits(ref))
			}
		}
		ivl := st.DistanceSqInterval(q, 0, make([]float64, 3))
		for i := 0; i < 3; i++ {
			if want := st.DistanceSqTo(i, q); !bitsEq(ivl[i], want) {
				t.Fatalf("dim %d: interval[%d] = %x, DistanceSqTo = %x",
					dim, i, math.Float64bits(ivl[i]), math.Float64bits(want))
			}
		}
	})
}

// checkVerifyContract holds the three fused verifiers to their contract on
// one (store, query, candidates, threshold) instance: the result is exactly
// the ids whose DistanceSqBatch value is ≤ eps2, in candidate order — with a
// nil out, with spare capacity, behind a prefix that must survive (with and
// without room for the candidates), and filtering the candidate slice in
// place — and nothing at or beyond len(out)+len(cand) is ever written.
// VerifyRangeSq2 is held to the same rule on 2-d stores, VerifyIntervalSq on
// the row interval [lo, hi).
func checkVerifyContract(t *testing.T, st *Store, q Point, cand []int, eps2 float64, lo, hi int) {
	t.Helper()
	const sentinel = -12345
	prefix := []int{-7, -8, -9}
	reference := func(ids []int) []int {
		var want []int
		for k, d2 := range st.DistanceSqBatch(q, ids, make([]float64, len(ids))) {
			if d2 <= eps2 {
				want = append(want, ids[k])
			}
		}
		return want
	}
	same := func(name string, got, want []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: dim %d eps2 %v: got %v, want %v", name, st.Dim(), eps2, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: dim %d eps2 %v: got %v, want %v", name, st.Dim(), eps2, got, want)
			}
		}
	}
	// shapes runs one verifier (n candidates per call) through every out
	// shape; inPlace is nil for the interval form, which has no candidate
	// slice to filter.
	shapes := func(name string, n int, want []int, verify func(out []int) []int, inPlace func() []int) {
		t.Helper()
		same(name+"/nil", verify(nil), want)
		for _, spare := range []int{0, n, n + 4} {
			backing := make([]int, len(prefix)+spare)
			copy(backing, prefix)
			for i := len(prefix); i < len(backing); i++ {
				backing[i] = sentinel
			}
			got := verify(backing[:len(prefix):len(backing)])
			same(name+"/prefix", got[:len(prefix)], prefix)
			same(name+"/prefix", got[len(prefix):], want)
			same(name+"/prefix-in-caller's-array", backing[:len(prefix)], prefix)
			if spare >= n {
				if n > 0 && &got[0] != &backing[0] {
					t.Fatalf("%s: out had room for %d candidates and was reallocated", name, n)
				}
				for i := len(prefix) + n; i < len(backing); i++ {
					if backing[i] != sentinel {
						t.Fatalf("%s: wrote backing[%d], at or beyond len(out)+len(cand) = %d", name, i, len(prefix)+n)
					}
				}
			}
		}
		if inPlace != nil {
			same(name+"/in-place", inPlace(), want)
		}
	}

	want := reference(cand)
	shapes("VerifyRangeSq", len(cand), want,
		func(out []int) []int { return st.VerifyRangeSq(q, cand, eps2, out) },
		func() []int {
			c := append([]int(nil), cand...)
			return st.VerifyRangeSq(q, c, eps2, c[:0])
		})
	if st.Dim() == 2 {
		shapes("VerifyRangeSq2", len(cand), want,
			func(out []int) []int { return st.VerifyRangeSq2(q[0], q[1], cand, eps2, out) },
			func() []int {
				c := append([]int(nil), cand...)
				return st.VerifyRangeSq2(q[0], q[1], c, eps2, c[:0])
			})
	}
	rows := make([]int, 0, hi-lo)
	for id := lo; id < hi; id++ {
		rows = append(rows, id)
	}
	shapes("VerifyIntervalSq", len(rows), reference(rows),
		func(out []int) []int { return st.VerifyIntervalSq(q, lo, hi, eps2, out) }, nil)
}

// TestVerifyContract runs checkVerifyContract over every dispatch branch
// (dims 1–9: the short strides, the unrolled 2/3/4, the width-4 generic with
// each tail length) on rows that include ±Inf, NaN and subnormal
// coordinates, with thresholds that pass none, some and all finite rows, and
// NaN.
func TestVerifyContract(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for dim := 1; dim <= 9; dim++ {
		pts := make([]Point, 48)
		for i := range pts {
			p := make(Point, dim)
			for d := range p {
				p[d] = rng.NormFloat64() * 2
			}
			pts[i] = p
		}
		for i, v := range specialValues {
			pts[3*i+1][i%dim] = v
		}
		st, err := FromPoints(pts)
		if err != nil {
			t.Fatal(err)
		}
		q := make(Point, dim)
		for d := range q {
			q[d] = rng.NormFloat64()
		}
		cand := append(rng.Perm(len(pts))[:30], 1, 1, 4, 0)
		for _, eps2 := range []float64{0, 1e-300, 2, float64(dim) * 4, math.MaxFloat64, math.Inf(1), math.NaN(), -1} {
			checkVerifyContract(t, st, q, cand, eps2, 5, 41)
			checkVerifyContract(t, st, pts[4], cand[:1], eps2, 7, 8)
			checkVerifyContract(t, st, q, nil, eps2, 9, 9)
		}
	}
}

// FuzzVerifyRangeSq fuzzes checkVerifyContract over raw coordinate bits,
// dims 1–9 and an arbitrary threshold: six rows and a query are cut from the
// fuzzed values, the candidate list repeats and reorders them.
func FuzzVerifyRangeSq(f *testing.F) {
	f.Add(uint8(1), 4.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
	f.Add(uint8(2), math.Inf(1), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Copysign(0, -1), 1e308, -1e-308, 0.5)
	f.Add(uint8(4), 1e-320, 1e-320, -1e-320, 4.9e-324, 0.0, 1e-162, -1e-162, 1.5e-162, 2.5, 3.5)
	f.Add(uint8(8), math.NaN(), 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 0.25, 3.0, 4.0)
	f.Fuzz(func(t *testing.T, dimRaw uint8, eps2, v0, v1, v2, v3, v4, v5, v6, v7, v8 float64) {
		dim := 1 + int(dimRaw)%9
		vals := []float64{v0, v1, v2, v3, v4, v5, v6, v7, v8}
		row := func(start int) Point {
			p := make(Point, dim)
			for d := range p {
				p[d] = vals[(start+d)%len(vals)]
			}
			return p
		}
		st, err := FromPoints([]Point{row(0), row(2), row(3), row(6), row(7), row(8)})
		if err != nil {
			t.Fatal(err)
		}
		checkVerifyContract(t, st, row(5), []int{0, 1, 2, 3, 4, 5, 5, 0, 3}, eps2, 1, 5)
	})
}
