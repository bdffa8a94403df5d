package rstar

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
)

func randomPoints(rng *rand.Rand, n, dim int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for j := range p {
			p[j] = rng.NormFloat64() * 5
		}
		pts[i] = p
	}
	return pts
}

// bulkOf STR-loads pts through a flat store — the only bulk build.
func bulkOf(pts []geom.Point) (*Packed, error) {
	if len(pts) == 0 {
		return NewBulkStore(geom.NewStore(2, 0), DefaultMaxEntries)
	}
	st, err := geom.FromPoints(pts)
	if err != nil {
		return nil, err
	}
	return NewBulkStore(st, DefaultMaxEntries)
}

// checkPackedInvariants verifies the structural R*-tree invariants on the
// packed levels of a tree of fan-out DefaultMaxEntries: every node but the
// root — or the one leaf that is the root — holds between m and M entries,
// every stored box tightly bounds its subtree, folded in order, and every
// point sits in exactly one leaf.
func checkPackedInvariants(t *testing.T, p *Packed) {
	t.Helper()
	minEntries := max(2, DefaultMaxEntries*2/5)
	seen := make([]bool, p.Len())
	bound := make([]float64, 2*p.dim)
	var walk func(level int, s span, root bool)
	walk = func(level int, s span, root bool) {
		if int(s.count) > DefaultMaxEntries || !root && int(s.count) < minEntries {
			t.Fatalf("level-%d node of %d entries outside [%d, %d]", level, s.count, minEntries, DefaultMaxEntries)
		}
		if level == 0 {
			for _, id := range p.perm[s.first : s.first+s.count] {
				if seen[id] {
					t.Fatalf("point %d indexed twice", id)
				}
				seen[id] = true
			}
			return
		}
		lv := &p.levels[level-1]
		for i := s.first; i < s.first+s.count; i++ {
			c := lv.spans[i]
			for k := c.first; k < c.first+c.count; k++ {
				var lo, hi []float64
				if level == 1 {
					lo = p.rows.Point(p.perm[k])
					hi = lo
				} else {
					b := p.levels[level-2].bounds[2*p.dim*int(k):]
					lo, hi = b[:p.dim], b[p.dim:2*p.dim]
				}
				for d := 0; d < p.dim; d++ {
					if k == c.first || lo[d] < bound[d] {
						bound[d] = lo[d]
					}
					if k == c.first || hi[d] > bound[p.dim+d] {
						bound[p.dim+d] = hi[d]
					}
				}
			}
			if stored := lv.bounds[2*p.dim*int(i) : 2*p.dim*int(i+1)]; !slices.Equal(stored, bound) {
				t.Fatalf("stale box of level-%d node %d: have %v, subtree bound %v", level-1, i, stored, bound)
			}
			walk(level-1, c, root && s.count == 1) // a lone child is the root's one leaf
		}
	}
	if p.Len() > 0 {
		walk(len(p.levels), span{0, p.rootCount}, true)
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("point %d in no leaf", id)
		}
	}
}

func TestBulkInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 5, 32, 33, 100, 1000, 5000} {
		tr, err := bulkOf(randomPoints(rng, n, 2))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		checkPackedInvariants(t, tr)
	}
}

func TestBulkHighDimInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr, err := bulkOf(randomPoints(rng, 2000, 4))
	if err != nil {
		t.Fatal(err)
	}
	checkPackedInvariants(t, tr)
}

func TestBulkValidation(t *testing.T) {
	if _, err := bulkOf([]geom.Point{{1, 2}, {1}}); err == nil {
		t.Error("mixed dims accepted")
	}
	if _, err := NewBulkStore(geom.NewStore(2, 0), 2); err == nil {
		t.Error("tiny fanout accepted")
	}
}

// BenchmarkBulkLoad builds a packed tree over uniform 2-d points: 512 rows
// is a streaming site's window (one build per upload), 16 000 a round-bulk
// site.
func BenchmarkBulkLoad(b *testing.B) {
	for _, n := range []int{128, 512, 16000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			pts := randomPoints(rng, n, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bulkOf(pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// storeOf copies pts into a flat store.
func storeOf(t testing.TB, pts []geom.Point) *geom.Store {
	t.Helper()
	st, err := geom.FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// minDistSq is the squared Euclidean distance from q to the nearest point of
// the box [lo, hi]: zero inside it, the R-tree's pruning bound.
func minDistSq(lo, hi []float64, q geom.Point) float64 {
	var sum float64
	for i, x := range q {
		var d float64
		switch {
		case x < lo[i]:
			d = lo[i] - x
		case x > hi[i]:
			d = x - hi[i]
		}
		sum += d * d
	}
	return sum
}
