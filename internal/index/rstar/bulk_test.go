package rstar

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// keysOf pairs every float with its position, as tile gathers them.
func keysOf(fs []float64) []sortKey {
	keys := make([]sortKey, len(fs))
	for i, f := range fs {
		keys[i] = sortKey{keyBits(f), i}
	}
	return keys
}

// TestTileOrderIsStable holds sortKeys to the rule DESIGN.md states — ascending
// key, equal keys in arrival order, −0.0 equal to +0.0 — which is what
// slices.SortStableFunc with < on the floats produces, on both sides of the
// insertion-sort cut-over.
func TestTileOrderIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	gen := func(n int, f func(i int) float64) []float64 {
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = f(i)
		}
		return fs
	}
	extremes := []float64{0, math.Copysign(0, -1), -1, 1, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300,
		1e-300, -1e-300, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), 0.1, -0.1}
	cases := map[string][]float64{
		"empty": nil,
		"one":   {3},
		"zeros": {0, math.Copysign(0, -1), 0, math.Copysign(0, -1), math.Copysign(0, -1), 0},
	}
	for _, n := range []int{2, insertionSortMax - 1, insertionSortMax, insertionSortMax + 1, insertionSortMax + 2, 200, 5000} {
		cases[fmt.Sprintf("uniform/%d", n)] = gen(n, func(int) float64 { return rng.Float64()*200 - 100 })
		cases[fmt.Sprintf("lattice/%d", n)] = gen(n, func(int) float64 { return float64(rng.Intn(7)) })
		cases[fmt.Sprintf("signed-zeros/%d", n)] = gen(n, func(int) float64 { return math.Copysign(0, float64(rng.Intn(2))-0.5) })
		cases[fmt.Sprintf("extremes/%d", n)] = gen(n, func(int) float64 { return extremes[rng.Intn(len(extremes))] })
		cases[fmt.Sprintf("equal/%d", n)] = gen(n, func(int) float64 { return 42.5 })
		cases[fmt.Sprintf("sorted/%d", n)] = gen(n, func(i int) float64 { return float64(i/3) - 20 })
		cases[fmt.Sprintf("reversed/%d", n)] = gen(n, func(i int) float64 { return float64((n-i)/3) * 1e-3 })
	}
	for name, fs := range cases {
		want := keysOf(fs)
		slices.SortStableFunc(want, func(a, b sortKey) int {
			switch {
			case fs[a.id] < fs[b.id]:
				return -1
			case fs[b.id] < fs[a.id]:
				return 1
			}
			return 0
		})
		got := sortKeys(keysOf(fs), make([]sortKey, len(fs)))
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys in, %d out", name, len(want), len(got))
		}
		for i := range want {
			if got[i].id != want[i].id {
				t.Fatalf("%s: position %d holds id %d (key %v), the stable sort has id %d (key %v)",
					name, i, got[i].id, fs[got[i].id], want[i].id, fs[want[i].id])
			}
		}
	}
}

// TestTileSortIsLinearTime: a million keys packed into [0, 1e-9] and one at
// 1e9 — the shape that sends an interpolating bucket sort quadratic — sort no
// slower than twice a million uniform keys (best of three each).
func TestTileSortIsLinearTime(t *testing.T) {
	if testing.Short() {
		t.Skip("sorts eight million keys")
	}
	const n = 1_000_000
	rng := rand.New(rand.NewSource(43))
	uniform, packed := make([]float64, n), make([]float64, n)
	for i := range uniform {
		uniform[i], packed[i] = rng.Float64(), rng.Float64()*1e-9
	}
	packed[n/2] = 1e9
	best := func(fs []float64) time.Duration {
		src, keys, swap := keysOf(fs), make([]sortKey, n), make([]sortKey, n)
		least := time.Duration(math.MaxInt64)
		for run := 0; run < 3; run++ {
			copy(keys, src)
			start := time.Now()
			sorted := sortKeys(keys, swap)
			least = min(least, time.Since(start))
			if run == 0 && !slices.IsSortedFunc(sorted, func(a, b sortKey) int { return cmp.Compare(a.key, b.key) }) {
				t.Fatal("not sorted")
			}
		}
		return least
	}
	if u, p := best(uniform), best(packed); p > 2*u {
		t.Fatalf("packed keys took %v, uniform keys %v", p, u)
	}
}

// TestSTRSlabCount: slabCount is the integer root rounded up — exact at the
// perfect powers, where ceil(math.Pow(pages, 1/axes)) cut one slab too many
// (6 for 125 pages on three axes, 4 for 6 561 on eight) — and a 3-d store of
// 4 000 rows, 125 pages, is tiled 5 × 5 × 5: 125 leaves in five x-slabs of 25,
// each ending before the next begins.
func TestSTRSlabCount(t *testing.T) {
	for _, axes := range []int{2, 3, 4, 8} {
		for k := 2; k <= 12; k++ {
			power := 1
			for i := 0; i < axes; i++ {
				power *= k
			}
			for pages, want := range map[int]int{power - 1: k, power: k, power + 1: k + 1} {
				if got := slabCount(pages, axes); got != want {
					t.Errorf("slabCount(%d, %d) = %d, want %d", pages, axes, got, want)
				}
			}
		}
	}
	if got := slabCount(1, 2); got != 1 {
		t.Errorf("slabCount(1, 2) = %d", got)
	}

	rng := rand.New(rand.NewSource(47))
	st := geom.NewStore(3, 4000)
	for i := 0; i < 4000; i++ {
		st.AppendCoords(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	tr, err := NewBulkStore(st, DefaultMaxEntries)
	if err != nil {
		t.Fatal(err)
	}
	leaves := tr.levels[0]
	if len(leaves.spans) != 125 {
		t.Fatalf("%d leaves, want 125", len(leaves.spans))
	}
	// The level above has moved the leaves into its own tiling order; by
	// their left edge they fall back into the x-slabs they were cut from.
	byLeft := identity(125)
	slices.SortFunc(byLeft, func(a, b int) int { return cmp.Compare(leaves.bounds[6*a], leaves.bounds[6*b]) })
	for slab := 0; slab+1 < 5; slab++ {
		end, next := math.Inf(-1), math.Inf(1)
		for _, i := range byLeft[25*slab : 25*(slab+1)] {
			end = max(end, leaves.bounds[6*i+3])
		}
		for _, i := range byLeft[25*(slab+1) : 25*(slab+2)] {
			next = min(next, leaves.bounds[6*i])
		}
		if end > next {
			t.Fatalf("x-slab %d reaches %v, slab %d starts at %v", slab, end, slab+1, next)
		}
	}
}

// TestLeavesInReach: the leaf capability relabel resolves by is the range
// query taken apart — verifying the leaves LeavesInReach names, in its order,
// on the store kernel returns what RangeAppend returns, in its order.
func TestLeavesInReach(t *testing.T) {
	for _, dim := range []int{2, 3, 8} {
		rng := rand.New(rand.NewSource(int64(50 + dim)))
		st, err := geom.FromPoints(randomPoints(rng, 3000, dim))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewBulkStore(st, DefaultMaxEntries, 1)
		if err != nil {
			t.Fatal(err)
		}
		leafOf, leaves := tr.Leaves()
		for l := 0; l < leaves; l++ {
			for _, id := range tr.Leaf(l) {
				if leafOf[id] != int32(l) {
					t.Fatalf("dim %d: Leaf(%d) holds id %d of leaf %d", dim, l, id, leafOf[id])
				}
			}
		}
		var reached, got, want []int
		for trial := 0; trial < 200; trial++ {
			q, eps := randomPoints(rng, 1, dim)[0], rng.Float64()*4*math.Sqrt(float64(dim))
			reached, got = tr.LeavesInReach(q, eps, reached[:0]), got[:0]
			for _, l := range reached {
				got = st.VerifyRangeSq(q, tr.Leaf(l), eps*eps, got)
			}
			if want = tr.RangeAppend(q, eps, want); !slices.Equal(got, want) {
				t.Fatalf("dim %d q %v eps %v: leaves in reach give %v, RangeAppend %v", dim, q, eps, got, want)
			}
		}
	}
}
