package rstar_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index/rstar"
)

// checkScan fails unless got, sorted, is N_Eps(p) by a scan of every row: the
// ids whose Store.DistanceSq from p is at most eps², each once.
func checkScan(t *testing.T, name string, st *geom.Store, p int, eps float64, got []int) {
	t.Helper()
	var want []int
	for q := range st.Len() {
		if st.DistanceSq(p, q) <= eps*eps {
			want = append(want, q)
		}
	}
	got = slices.Clone(got)
	if slices.Sort(got); !slices.Equal(got, want) {
		t.Fatalf("%s: id %d at ε %v: neighbours %v, scan %v", name, p, eps, got, want)
	}
}

// TestNeighboursMatchScan holds dbscan.Neighbours, the by-id neighbourhood
// OPTICS and pdbscan ask for, to a scan of every row over the packed tree, on
// the degenerate shapes at fan-outs 4 and 32: at the radius the tree was built
// for (where NearLeaves reads the leaf table), at half and twice it (where it
// descends), and at the length of the data's bounding-box diagonal — OPTICS's
// default generating radius, whose walk takes every leaf whole — and past it.
func TestNeighboursMatchScan(t *testing.T) {
	for _, c := range rstar.DegenerateShapes() {
		st, err := geom.FromPoints(c.Pts)
		if err != nil {
			t.Fatal(err)
		}
		r := st.BoundingRect()
		diag := (geom.Euclidean{}).Distance(r.Min, r.Max)
		for _, fanout := range []int{4, rstar.DefaultMaxEntries} {
			tr, err := rstar.NewBulkStore(st, fanout, c.Eps)
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range []float64{c.Eps, c.Eps / 2, 2 * c.Eps, diag, 2*diag + c.Eps} {
				name := fmt.Sprintf("%s/M=%d/eps=%v", c.Name, fanout, eps)
				nb := dbscan.Neighbours(tr, eps)
				var got []int
				for p := range st.Len() {
					got = nb.Of(p, got)
					checkScan(t, name, st, p, eps, got)
				}
			}
		}
	}
}

// FuzzLeaves derives a small lattice point set (ties everywhere) and a radius
// from the fuzzed bytes and holds the bulk-loaded tree, at fan-outs 4 and 32
// and built for that radius, to its leaf contract: every id lies in exactly
// one leaf and inside its box; NearLeaves, at the radius (the leaf table) and
// one wider (the descent), lists exactly the leaves whose boxes lie within it
// by a test of every pair; and every id's neighbourhood by dbscan.Neighbours
// is a scan's.
func FuzzLeaves(f *testing.F) {
	boundary := make([]byte, 2+2*33)
	for i := range boundary {
		boundary[i] = byte(i * 7)
	}
	boundary[0], boundary[1] = 1, 12 // 2-d, eps 3
	f.Add(boundary[:2+2*32])         // n = 32: a single root leaf
	f.Add(boundary)                  // n = 33: the first split
	f.Add([]byte{0, 0, 5, 5, 5, 9})  // 1-d duplicates, eps 0
	f.Add([]byte{3, 255})
	lattice := []byte{1, 6} // 300 rows on a 4 × 3 lattice: every sort key tied 75 times or more
	for i := 0; i < 300; i++ {
		lattice = append(lattice, byte(i*7%4), byte(i*5%3))
	}
	f.Add(lattice)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		dim := int(in[0])%4 + 1
		eps := float64(in[1]) / 4
		in = in[2:]
		n := min(len(in)/dim, 300)
		if n == 0 {
			return
		}
		st := geom.NewStore(dim, n)
		for i := 0; i < n; i++ {
			row := st.AppendZero()
			for d := range row {
				row[d] = float64(in[i*dim+d] % 16)
			}
		}
		for _, fanout := range []int{4, rstar.DefaultMaxEntries} {
			tr, err := rstar.NewBulkStore(st, fanout, eps)
			if err != nil {
				t.Fatal(err)
			}
			checkLeaves(t, fmt.Sprintf("dim %d n %d M=%d", dim, n, fanout), tr, eps, eps+1)
		}
	})
}

// checkLeaves holds tr to its leaf contract: every id lies in exactly one leaf
// and inside its box; NearLeaves, at each radius, lists exactly the leaves
// whose boxes lie within it by a test of every pair; and every id's
// neighbourhood by dbscan.Neighbours, at each radius, is a scan's.
func checkLeaves(t *testing.T, name string, tr *rstar.Packed, radii ...float64) {
	t.Helper()
	st := tr.Store()
	dim, n := st.Dim(), st.Len()
	seen := make([]int, n)
	for i := range tr.NumLeaves() {
		ids, box := tr.Leaf(i)
		for _, id := range ids {
			seen[id]++
			for d, v := range st.Point(id) {
				if v < box[d] || v > box[dim+d] {
					t.Fatalf("%s: id %d lies outside the box %v of its leaf %d", name, id, box, i)
				}
			}
		}
	}
	for id, k := range seen {
		if k != 1 {
			t.Fatalf("%s: id %d lies in %d leaves", name, id, k)
		}
	}
	var near []int32
	var got []int
	for _, r := range radii {
		for i := range tr.NumLeaves() {
			near = tr.NearLeaves(i, r, near[:0])
			slices.Sort(near)
			if want := boxPairs(tr, i, r); !slices.Equal(near, want) {
				t.Fatalf("%s: ε %v leaf %d: near leaves %v, box pairs %v", name, r, i, near, want)
			}
		}
		nb := dbscan.Neighbours(tr, r)
		for p := range n {
			got = nb.Of(p, got)
			checkScan(t, name, st, p, r, got)
		}
	}
}

// randomSet draws n points of dim normal coordinates, σ = 5.
func randomSet(rng *rand.Rand, n, dim int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = make(geom.Point, dim)
		for d := range pts[i] {
			pts[i][d] = rng.NormFloat64() * 5
		}
	}
	return pts
}

// latticeSet draws n points of dim integer coordinates in [0, side): ties in
// every sort key, and duplicates.
func latticeSet(rng *rand.Rand, n, dim, side int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = make(geom.Point, dim)
		for d := range pts[i] {
			pts[i][d] = float64(rng.Intn(side))
		}
	}
	return pts
}

// TestLeavesOnRandomSets holds the packed tree to its leaf contract on random
// and lattice sets of one to eight dimensions, built for the middle of three
// radii and walked at all three: the leaf table answers the middle one, the
// descent the others. n = 32 is the largest set one node holds, which makes
// the tree one leaf; n = 33 is the first split.
func TestLeavesOnRandomSets(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	cases := []struct {
		name string
		pts  []geom.Point
		eps  [3]float64
	}{
		{"2d", randomSet(rng, 3000, 2), [3]float64{0.05, 0.7, 4}},
		{"2d-lattice", latticeSet(rng, 3000, 2, 20), [3]float64{0, 1, 2.5}},
		{"3d", randomSet(rng, 1500, 3), [3]float64{0.3, 2, 6}},
		{"8d", randomSet(rng, 1200, 8), [3]float64{2, 9, 14}},
		{"1d-lattice", latticeSet(rng, 500, 1, 40), [3]float64{0, 1, 7}},
		{"n=32", randomSet(rng, 32, 2), [3]float64{0.5, 3, 40}},
		{"n=33", randomSet(rng, 33, 2), [3]float64{0.5, 3, 40}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, err := geom.FromPoints(c.pts)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := rstar.NewBulkStore(st, rstar.DefaultMaxEntries, c.eps[1])
			if err != nil {
				t.Fatal(err)
			}
			if one := tr.NumLeaves() == 1; one != (len(c.pts) <= rstar.DefaultMaxEntries) {
				t.Fatalf("%d leaves over %d points", tr.NumLeaves(), len(c.pts))
			}
			checkLeaves(t, c.name, tr, c.eps[:]...)
		})
	}
}

// TestBulkConcurrentReaders: eight readers share one packed tree built for
// their radius, each listing near leaves — by the leaf table at the radius,
// by the descent at twice it — and walking neighbourhoods through its own
// dbscan.Neighbours. Every answer is the one a lone reader gets. Run under
// -race.
func TestBulkConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	st, err := geom.FromPoints(randomSet(rng, 4000, 2))
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.6
	tr, err := rstar.NewBulkStore(st, rstar.DefaultMaxEntries, eps)
	if err != nil {
		t.Fatal(err)
	}
	radii := []float64{eps, 2 * eps}
	wantNear := make([][][]int32, len(radii))
	wantNb := make([][][]int, len(radii))
	for r, e := range radii {
		for i := range tr.NumLeaves() {
			wantNear[r] = append(wantNear[r], tr.NearLeaves(i, e, nil))
		}
		nb := dbscan.Neighbours(tr, e)
		for p := range st.Len() {
			wantNb[r] = append(wantNb[r], nb.Of(p, nil))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var near []int32
			var buf []int
			for r, e := range radii {
				for i := g; i < tr.NumLeaves(); i += 8 {
					if near = tr.NearLeaves(i, e, near[:0]); !slices.Equal(near, wantNear[r][i]) {
						t.Errorf("ε %v leaf %d: near leaves %v, want %v", e, i, near, wantNear[r][i])
						return
					}
				}
				nb := dbscan.Neighbours(tr, e)
				for p := g; p < st.Len(); p += 8 {
					if buf = nb.Of(p, buf); !slices.Equal(buf, wantNb[r][p]) {
						t.Errorf("ε %v id %d: %v, want %v", e, p, buf, wantNb[r][p])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// boxPairs lists, ascending, the leaves of tr whose box lies within eps of
// leaf i's: per dimension the gap between the two intervals, squared and
// summed.
func boxPairs(tr *rstar.Packed, i int, eps float64) []int32 {
	_, a := tr.Leaf(i)
	dim := len(a) / 2
	var out []int32
	for j := range tr.NumLeaves() {
		_, b := tr.Leaf(j)
		var sum float64
		for d := range dim {
			g := max(b[d]-a[dim+d], a[d]-b[dim+d], 0)
			sum += g * g
		}
		if sum <= eps*eps {
			out = append(out, int32(j))
		}
	}
	return out
}
