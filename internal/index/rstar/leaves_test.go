package rstar

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// Shape is a point set and the radius it is clustered at.
type Shape struct {
	Name string
	Pts  []geom.Point
	Eps  float64
}

// DegenerateShapes are the inputs of dbscan's TestRunParallelDifferential a
// spatial structure trips over, each with the radius that suite clusters it
// at: exact duplicates, neighbours at exactly ε, one and eight dimensions, a
// single location, and an ε that covers the whole bounding box — plus the
// lattice again under four times its ε, and a set one leaf of fan-out 32
// holds.
func DegenerateShapes() []Shape {
	rng := rand.New(rand.NewSource(23))
	var dup, lattice []geom.Point
	for i := 0; i < 100; i++ {
		p := geom.Point{rng.Float64() * 10, rng.Float64() * 10}
		for c := 0; c < 6; c++ {
			dup = append(dup, p.Clone())
		}
	}
	for x := 0; x < 25; x++ {
		for y := 0; y < 25; y++ {
			lattice = append(lattice, geom.Point{float64(x) * 0.25, float64(y) * 0.25})
		}
	}
	line := make([]geom.Point, 512)
	for i := range line {
		line[i] = geom.Point{float64(i/64)*10 + rng.Float64()}
	}
	high := make([]geom.Point, 400)
	for i := range high {
		high[i] = make(geom.Point, 8)
		for d := range high[i] {
			high[i][d] = rng.Float64()
		}
	}
	same := make([]geom.Point, 200)
	for i := range same {
		same[i] = geom.Point{1.5, -2.5}
	}
	unit := func(n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{rng.Float64(), rng.Float64()}
		}
		return pts
	}
	return []Shape{
		{"duplicates", dup, 0.5},
		{"boundary-lattice", lattice, 0.25},
		{"line-1d", line, 0.5},
		{"cube-8d", high, 0.45},
		{"all-identical", same, 0.5},
		{"eps-covers-bbox", unit(300), 5},
		{"lattice-wide-eps", lattice, 1}, // at fan-out 4, seven spans a leaf: more than points
		{"one-leaf", unit(DefaultMaxEntries - 5), 0.3},
	}
}

// bruteNear is what linkLeaves should list, leaf pair by leaf pair: per leaf
// the leaves whose box lies within eps of its box, ascending; how many that
// makes in all; and the fewest spans of adjacent leaves that can hold them (a
// descent visits the leaves of a tree of four levels and more out of index
// order, so its table may need more).
func bruteNear(p *Packed, eps float64) (near [][]int32, listed, runs int) {
	lv, w := &p.levels[0], 2*p.dim
	near = make([][]int32, len(lv.spans))
	for i := range lv.spans {
		aMin, aMax := lv.bounds[w*i:w*i+p.dim], lv.bounds[w*i+p.dim:w*(i+1)]
		for j := range lv.spans {
			// The box-to-box distance is the point-to-box distance from the
			// nearest point of a, dimension by dimension.
			q := make(geom.Point, p.dim)
			for d := range q {
				q[d] = min(max(lv.bounds[w*j+d], aMin[d]), aMax[d])
			}
			if minDistSq(lv.bounds[w*j:w*j+p.dim], lv.bounds[w*j+p.dim:w*(j+1)], q) <= eps*eps {
				if k := len(near[i]); k == 0 || near[i][k-1] != int32(j)-1 {
					runs++
				}
				near[i] = append(near[i], int32(j))
			}
		}
		listed += len(near[i])
	}
	return near, listed, runs
}

// TestLeafTableMatchesBoxPairs holds the table linkLeaves keeps to a test of
// every pair of leaf boxes on the degenerate shapes at fan-outs 4 and 32: it
// never holds more spans than there are points — the small-fan-out trees of
// the lattice under a wide ε, among others, keep none — and lists, where
// kept, what the box pairs list. A twin built without a radius keeps no
// table. Fan-out 4 makes trees of five levels and more, where the descent's
// visit order is not the leaves' index order.
func TestLeafTableMatchesBoxPairs(t *testing.T) {
	tables := map[bool]int{}
	for _, c := range DegenerateShapes() {
		for _, fanout := range []int{4, DefaultMaxEntries} {
			st := storeOf(t, c.Pts)
			p, err := NewBulkStore(st, fanout, c.Eps)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewBulkStore(st, fanout)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/M=%d", c.Name, fanout)
			want, listed, runs := bruteNear(p, c.Eps)
			kept, n := p.near != nil, len(c.Pts)
			switch {
			case kept != (p.nearEps2 == c.Eps*c.Eps), !kept && p.nearEps2 >= 0:
				t.Fatalf("%s: table kept: %v, squared radius %v", name, kept, p.nearEps2)
			case kept && (len(p.near) > n || len(p.near) < runs), !kept && listed <= n, runs > n && kept:
				t.Fatalf("%s: table kept: %v with %d spans; %d points, %d leaves to list, in %d spans at best", name, kept, len(p.near), n, listed, runs)
			}
			tables[kept]++
			for i := 0; kept && i < len(want); i++ {
				var got []int32
				for _, s := range p.near[p.nearEnd[i]:p.nearEnd[i+1]] {
					for j := s.first; j < s.first+s.count; j++ {
						got = append(got, j)
					}
				}
				if slices.Sort(got); !slices.Equal(got, want[i]) {
					t.Fatalf("%s: leaf %d lists %v, box pairs within ε %v", name, i, got, want[i])
				}
			}
			if twin.near != nil || twin.nearEps2 >= 0 {
				t.Fatalf("%s: a tree built without a radius has a table", name)
			}
		}
	}
	if tables[true] < 5 || tables[false] < 2 {
		t.Fatalf("%d trees with a table, %d without: the shapes no longer cover both", tables[true], tables[false])
	}
}

// A radius that is no radius builds no table; the leaves are still on offer.
func TestNoLeafTableForUnusableRadius(t *testing.T) {
	st := storeOf(t, randomPoints(rand.New(rand.NewSource(3)), 500, 2))
	for _, hint := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr, err := NewBulkStore(st, DefaultMaxEntries, hint)
		if err != nil {
			t.Fatal(err)
		}
		if p := tr; p.near != nil || p.nearEnd != nil || p.nearEps2 >= 0 {
			t.Fatalf("hint %v: table built (squared radius %v)", hint, p.nearEps2)
		}
		if leaves := tr.NumLeaves(); leaves == 0 || leaves != len(tr.levels[0].spans) {
			t.Fatalf("hint %v: %d leaves on offer, %d in the tree", hint, leaves, len(tr.levels[0].spans))
		}
	}
}

// TestNearLeavesMatchBoxPairs holds NearLeaves to a test of every pair of
// leaf boxes, on the degenerate shapes at fan-outs 4 and 32, at the radius a
// shape is clustered at, half and twice it, whatever radius the tree was
// built for: no hint, the radius itself, or four times it. Every leaf is
// listed once, and the leaf itself always.
func TestNearLeavesMatchBoxPairs(t *testing.T) {
	for _, c := range DegenerateShapes() {
		for _, fanout := range []int{4, DefaultMaxEntries} {
			for _, hint := range []float64{0, c.Eps, 4 * c.Eps} {
				tr, err := NewBulkStore(storeOf(t, c.Pts), fanout, hint)
				if err != nil {
					t.Fatal(err)
				}
				var got []int32
				for _, eps := range []float64{c.Eps / 2, c.Eps, 2 * c.Eps} {
					want, _, _ := bruteNear(tr, eps)
					for i := range tr.NumLeaves() {
						got = tr.NearLeaves(i, eps, got[:0])
						if slices.Sort(got); !slices.Equal(got, want[i]) || !slices.Contains(got, int32(i)) {
							t.Fatalf("%s/M=%d/hint=%v: eps %v leaf %d: %v, box pairs within ε %v", c.Name, fanout, hint, eps, i, got, want[i])
						}
					}
				}
			}
		}
	}
}
