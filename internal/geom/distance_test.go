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

func TestManhattanDistance(t *testing.T) {
	m := Manhattan{}
	if got := m.Distance(Point{0, 0}, Point{3, -4}); got != 7 {
		t.Errorf("Distance = %v, want 7", got)
	}
}

func TestChebyshevDistance(t *testing.T) {
	c := Chebyshev{}
	if got := c.Distance(Point{0, 0}, Point{3, -4}); got != 4 {
		t.Errorf("Distance = %v, want 4", got)
	}
}

func TestMinkowskiSpecialCases(t *testing.T) {
	p, q := Point{1, 2, -1}, Point{-2, 0, 3}
	m1 := Minkowski{P: 1}
	if got, want := m1.Distance(p, q), (Manhattan{}).Distance(p, q); math.Abs(got-want) > 1e-12 {
		t.Errorf("Minkowski(1) = %v, Manhattan = %v", got, want)
	}
	m2 := Minkowski{P: 2}
	if got, want := m2.Distance(p, q), (Euclidean{}).Distance(p, q); math.Abs(got-want) > 1e-12 {
		t.Errorf("Minkowski(2) = %v, Euclidean = %v", got, want)
	}
}

func TestMinkowskiInvalidOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for P < 1")
		}
	}()
	Minkowski{P: 0.5}.Distance(Point{0}, Point{1})
}

func TestSquaredEuclidean(t *testing.T) {
	if got := SquaredEuclidean(Point{0, 0}, Point{3, 4}); got != 25 {
		t.Errorf("SquaredEuclidean = %v, want 25", got)
	}
}

func TestMetricNames(t *testing.T) {
	cases := []struct {
		m    Metric
		want string
	}{
		{Euclidean{}, "euclidean"},
		{Manhattan{}, "manhattan"},
		{Chebyshev{}, "chebyshev"},
		{Minkowski{P: 3}, "minkowski-3"},
	}
	for _, c := range cases {
		if got := c.m.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

// Property: every built-in metric satisfies the metric axioms on random
// points — symmetry, identity, non-negativity and the triangle inequality.
func TestMetricAxioms(t *testing.T) {
	metrics := []Metric{Euclidean{}, Manhattan{}, Chebyshev{}, Minkowski{P: 3}}
	rng := rand.New(rand.NewSource(42))
	for _, m := range metrics {
		for iter := 0; iter < 200; iter++ {
			a := randomPoint(rng, 4)
			b := randomPoint(rng, 4)
			c := randomPoint(rng, 4)
			dab := m.Distance(a, b)
			dba := m.Distance(b, a)
			if math.Abs(dab-dba) > 1e-9 {
				t.Fatalf("%s: not symmetric: %v vs %v", m.Name(), dab, dba)
			}
			if dab < 0 {
				t.Fatalf("%s: negative distance %v", m.Name(), dab)
			}
			if d := m.Distance(a, a); d != 0 {
				t.Fatalf("%s: d(a,a) = %v, want 0", m.Name(), d)
			}
			dac := m.Distance(a, c)
			dcb := m.Distance(c, b)
			if dab > dac+dcb+1e-9 {
				t.Fatalf("%s: triangle inequality violated: d(a,b)=%v > d(a,c)+d(c,b)=%v",
					m.Name(), dab, dac+dcb)
			}
		}
	}
}

// Property: the Lp metrics are ordered: L∞ ≤ L2 ≤ L1 on any pair of points.
func TestLpOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		a := randomPoint(rng, 5)
		b := randomPoint(rng, 5)
		linf := Chebyshev{}.Distance(a, b)
		l2 := Euclidean{}.Distance(a, b)
		l1 := Manhattan{}.Distance(a, b)
		if linf > l2+1e-9 || l2 > l1+1e-9 {
			t.Fatalf("Lp ordering violated: L∞=%v L2=%v L1=%v", linf, l2, l1)
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
