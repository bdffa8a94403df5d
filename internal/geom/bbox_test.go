package geom

import "testing"

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
