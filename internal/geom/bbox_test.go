package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rect(minx, miny, maxx, maxy float64) Rect {
	return NewRect(Point{minx, miny}, Point{maxx, maxy})
}

func TestNewRectValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted rect")
		}
	}()
	NewRect(Point{1, 0}, Point{0, 1})
}

func TestNewRectClones(t *testing.T) {
	min := Point{0, 0}
	r := NewRect(min, Point{1, 1})
	min[0] = 99
	if r.Min[0] != 0 {
		t.Fatal("NewRect must clone its corners")
	}
}

func TestRectContains(t *testing.T) {
	r := rect(0, 0, 2, 2)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{1, 1}, true},
		{Point{0, 0}, true}, // boundary inclusive
		{Point{2, 2}, true},
		{Point{3, 1}, false},
		{Point{-0.1, 1}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	r := rect(0, 0, 2, 2)
	cases := []struct {
		s    Rect
		want bool
	}{
		{rect(1, 1, 3, 3), true},
		{rect(2, 2, 3, 3), true}, // touching corner counts
		{rect(2.1, 0, 3, 1), false},
		{rect(-1, -1, 3, 3), true}, // containment
		{rect(0.5, 0.5, 1.5, 1.5), true},
	}
	for _, c := range cases {
		if got := r.Intersects(c.s); got != c.want {
			t.Errorf("Intersects(%v) = %v, want %v", c.s, got, c.want)
		}
		if got := c.s.Intersects(r); got != c.want {
			t.Errorf("Intersects not symmetric for %v", c.s)
		}
	}
}

func TestRectContainsRect(t *testing.T) {
	r := rect(0, 0, 4, 4)
	if !r.ContainsRect(rect(1, 1, 2, 2)) {
		t.Error("inner rect should be contained")
	}
	if !r.ContainsRect(r) {
		t.Error("rect should contain itself")
	}
	if r.ContainsRect(rect(1, 1, 5, 2)) {
		t.Error("overhanging rect should not be contained")
	}
}

func TestRectExtend(t *testing.T) {
	r := rect(0, 0, 1, 1).Extend(rect(2, -1, 3, 0.5))
	want := rect(0, -1, 3, 1)
	if !r.Min.Equal(want.Min) || !r.Max.Equal(want.Max) {
		t.Errorf("Extend = %v, want %v", r, want)
	}
}

func TestRectExtendPoint(t *testing.T) {
	r := rect(0, 0, 1, 1).ExtendPoint(Point{5, -2})
	want := rect(0, -2, 5, 1)
	if !r.Min.Equal(want.Min) || !r.Max.Equal(want.Max) {
		t.Errorf("ExtendPoint = %v, want %v", r, want)
	}
}

func TestRectAreaMargin(t *testing.T) {
	r := rect(0, 0, 2, 3)
	if r.Area() != 6 {
		t.Errorf("Area = %v, want 6", r.Area())
	}
	if r.Margin() != 5 {
		t.Errorf("Margin = %v, want 5", r.Margin())
	}
}

func TestRectOverlapArea(t *testing.T) {
	a := rect(0, 0, 2, 2)
	b := rect(1, 1, 3, 3)
	if got := a.OverlapArea(b); got != 1 {
		t.Errorf("OverlapArea = %v, want 1", got)
	}
	if got := a.OverlapArea(rect(3, 3, 4, 4)); got != 0 {
		t.Errorf("disjoint OverlapArea = %v, want 0", got)
	}
	if got := a.OverlapArea(rect(2, 0, 3, 2)); got != 0 {
		t.Errorf("touching OverlapArea = %v, want 0", got)
	}
}

func TestRectCenter(t *testing.T) {
	if c := rect(0, 0, 2, 4).Center(); !c.Equal(Point{1, 2}) {
		t.Errorf("Center = %v", c)
	}
}

func TestRectEnlargement(t *testing.T) {
	r := rect(0, 0, 1, 1)
	if got := r.Enlargement(rect(0.25, 0.25, 0.5, 0.5)); got != 0 {
		t.Errorf("Enlargement for contained rect = %v, want 0", got)
	}
	if got := r.Enlargement(rect(0, 0, 2, 1)); got != 1 {
		t.Errorf("Enlargement = %v, want 1", got)
	}
}

func TestRectMinDist(t *testing.T) {
	r := rect(0, 0, 2, 2)
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{1, 1}, 0},     // inside
		{Point{2, 2}, 0},     // on boundary
		{Point{5, 2}, 3},     // right of
		{Point{5, 6}, 5},     // diagonal: 3-4-5
		{Point{-3, -4}, 5},   // other diagonal
		{Point{1, 3.5}, 1.5}, // above
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MinDist(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBoundingRect(t *testing.T) {
	r := BoundingRect([]Point{{1, 5}, {-2, 3}, {4, -1}})
	want := rect(-2, -1, 4, 5)
	if !r.Min.Equal(want.Min) || !r.Max.Equal(want.Max) {
		t.Errorf("BoundingRect = %v, want %v", r, want)
	}
}

func TestBoundingRectEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BoundingRect(nil)
}

func TestRectString(t *testing.T) {
	if got := rect(0, 0, 1, 2).String(); got != "[(0, 0); (1, 2)]" {
		t.Errorf("String = %q", got)
	}
}

// Property: MinDist(p) is a valid lower bound on the distance from p to any
// point contained in the rectangle.
func TestMinDistLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := Euclidean{}
	for iter := 0; iter < 300; iter++ {
		a, b := randomPoint(rng, 3), randomPoint(rng, 3)
		r := RectFromPoint(a).ExtendPoint(b)
		q := randomPoint(rng, 3)
		// Random point inside r.
		inside := make(Point, 3)
		for i := range inside {
			inside[i] = r.Min[i] + rng.Float64()*(r.Max[i]-r.Min[i])
		}
		if !r.Contains(inside) {
			t.Fatal("generated point not inside rect")
		}
		if md := r.MinDist(q); md > e.Distance(q, inside)+1e-9 {
			t.Fatalf("MinDist %v exceeds actual distance %v", md, e.Distance(q, inside))
		}
	}
}

// Property: Extend yields a rectangle containing both inputs, and extension
// never shrinks area.
func TestExtendProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 300; iter++ {
		r1 := RectFromPoint(randomPoint(rng, 2)).ExtendPoint(randomPoint(rng, 2))
		r2 := RectFromPoint(randomPoint(rng, 2)).ExtendPoint(randomPoint(rng, 2))
		u := r1.Extend(r2)
		if !u.ContainsRect(r1) || !u.ContainsRect(r2) {
			t.Fatalf("union %v does not contain inputs %v, %v", u, r1, r2)
		}
		if u.Area() < r1.Area()-1e-12 || u.Area() < r2.Area()-1e-12 {
			t.Fatalf("union smaller than an input")
		}
	}
}

// Property (testing/quick): Contains/Intersects/Extend stay mutually
// consistent on random rectangles.
func TestQuickRectConsistency(t *testing.T) {
	f := func(a, b [2][2]float64) bool {
		mk := func(c [2][2]float64) Rect {
			lo := Point{math.Min(c[0][0], c[1][0]), math.Min(c[0][1], c[1][1])}
			hi := Point{math.Max(c[0][0], c[1][0]), math.Max(c[0][1], c[1][1])}
			if !lo.IsFinite() || !hi.IsFinite() {
				lo, hi = Point{0, 0}, Point{1, 1}
			}
			return NewRect(lo, hi)
		}
		r1, r2 := mk(a), mk(b)
		u := r1.Extend(r2)
		if !u.ContainsRect(r1) || !u.ContainsRect(r2) {
			return false
		}
		// Containment implies intersection.
		if r1.ContainsRect(r2) && !r1.Intersects(r2) {
			return false
		}
		// Intersection is symmetric.
		if r1.Intersects(r2) != r2.Intersects(r1) {
			return false
		}
		// Overlap area is positive only for intersecting rects.
		if r1.OverlapArea(r2) > 0 && !r1.Intersects(r2) {
			return false
		}
		// Corners of r1 are contained in r1.
		return r1.Contains(r1.Min) && r1.Contains(r1.Max) && r1.Contains(r1.Center())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
