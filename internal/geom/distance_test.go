package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestEuclideanDistance(t *testing.T) {
	e := Euclidean{}
	if got := e.Distance(Point{0, 0}, Point{3, 4}); got != 5 {
		t.Errorf("Distance = %v, want 5", got)
	}
	if got := e.Distance(Point{1, 1}, Point{1, 1}); got != 0 {
		t.Errorf("Distance = %v, want 0", got)
	}
}

func TestSquaredEuclidean(t *testing.T) {
	if got := SquaredEuclidean(Point{0, 0}, Point{3, 4}); got != 25 {
		t.Errorf("SquaredEuclidean = %v, want 25", got)
	}
}

// Property: the Euclidean metric satisfies the metric axioms on random
// points — symmetry, identity, non-negativity and the triangle inequality.
func TestMetricAxioms(t *testing.T) {
	var m Euclidean
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		a := randomPoint(rng, 4)
		b := randomPoint(rng, 4)
		c := randomPoint(rng, 4)
		dab := m.Distance(a, b)
		dba := m.Distance(b, a)
		if math.Abs(dab-dba) > 1e-9 {
			t.Fatalf("not symmetric: %v vs %v", dab, dba)
		}
		if dab < 0 {
			t.Fatalf("negative distance %v", dab)
		}
		if d := m.Distance(a, a); d != 0 {
			t.Fatalf("d(a,a) = %v, want 0", d)
		}
		dac := m.Distance(a, c)
		dcb := m.Distance(c, b)
		if dab > dac+dcb+1e-9 {
			t.Fatalf("triangle inequality violated: d(a,b)=%v > d(a,c)+d(c,b)=%v", dab, dac+dcb)
		}
	}
}

func BenchmarkEuclideanDistance2D(b *testing.B) {
	p, q := Point{1.5, -2.25}, Point{3.75, 4.125}
	e := Euclidean{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.Distance(p, q)
	}
}
