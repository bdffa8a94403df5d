package geom

import (
	"fmt"
	"math"
	"strings"
)

// Rect is an axis-aligned bounding box described by its lower-left (Min) and
// upper-right (Max) corners. Rects are the node entries of the R*-tree.
type Rect struct {
	Min, Max Point
}

// NewRect returns a rectangle spanning min..max. It panics if the corners
// disagree on dimensionality or min exceeds max in any dimension.
func NewRect(min, max Point) Rect {
	mustSameDim(min, max)
	for i := range min {
		if min[i] > max[i] {
			panic(fmt.Sprintf("geom: inverted rect in dim %d: %v > %v", i, min[i], max[i]))
		}
	}
	return Rect{Min: min.Clone(), Max: max.Clone()}
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{Min: p.Clone(), Max: p.Clone()}
}

// BoundingRect returns the smallest rectangle enclosing all given points.
// It panics on an empty slice or on mixed dimensionality. The fold runs in
// a single pass over two scratch corners — exactly two allocations total,
// instead of the clone-and-extend-per-point of the naive fold (pinned by
// an AllocsPerRun test). Store-backed callers use Store.BoundingRect, the
// strided variant over the flat backing array.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect of empty point set")
	}
	min := pts[0].Clone()
	max := pts[0].Clone()
	for _, p := range pts[1:] {
		mustSameDim(min, p)
		for i, v := range p {
			if v < min[i] {
				min[i] = v
			}
			if v > max[i] {
				max[i] = v
			}
		}
	}
	return Rect{Min: min, Max: max}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Min) }

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect {
	return Rect{Min: r.Min.Clone(), Max: r.Max.Clone()}
}

// Contains reports whether p lies inside r (boundaries inclusive).
func (r Rect) Contains(p Point) bool {
	mustSameDim(r.Min, p)
	for i := range p {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	mustSameDim(r.Min, s.Min)
	for i := range r.Min {
		if r.Min[i] > s.Max[i] || r.Max[i] < s.Min[i] {
			return false
		}
	}
	return true
}

// Extend returns the smallest rectangle enclosing both r and s.
func (r Rect) Extend(s Rect) Rect {
	mustSameDim(r.Min, s.Min)
	out := r.Clone()
	for i := range out.Min {
		if s.Min[i] < out.Min[i] {
			out.Min[i] = s.Min[i]
		}
		if s.Max[i] > out.Max[i] {
			out.Max[i] = s.Max[i]
		}
	}
	return out
}

// ExtendPoint returns the smallest rectangle enclosing r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	mustSameDim(r.Min, p)
	out := r.Clone()
	for i := range out.Min {
		if p[i] < out.Min[i] {
			out.Min[i] = p[i]
		}
		if p[i] > out.Max[i] {
			out.Max[i] = p[i]
		}
	}
	return out
}

// Area returns the d-dimensional volume of r.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= r.Max[i] - r.Min[i]
	}
	return a
}

// Margin returns the sum of the edge lengths of r (the R*-tree split
// heuristic minimises this quantity).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Min {
		m += r.Max[i] - r.Min[i]
	}
	return m
}

// OverlapArea returns the volume of the intersection of r and s, or 0 when
// they are disjoint. Corners must not be NaN (every Rect this package and the
// indexes build is finite): the bounds are taken with plain compares, where
// math.Max and math.Min, with their NaN and signed-zero cases, were close to
// half of this function's time on the R*-tree's insert path.
func (r Rect) OverlapArea(s Rect) float64 {
	a := 1.0
	for i, lo := range r.Min {
		hi := r.Max[i]
		if s.Min[i] > lo {
			lo = s.Min[i]
		}
		if s.Max[i] < hi {
			hi = s.Max[i]
		}
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// Center returns the center point of r. Halving before adding keeps the
// computation overflow-free even for corners near ±MaxFloat64.
func (r Rect) Center() Point {
	c := make(Point, len(r.Min))
	for i := range c {
		c[i] = r.Min[i]*0.5 + r.Max[i]*0.5
	}
	return c
}

// Enlargement returns the increase in area needed for r to also cover s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Extend(s).Area() - r.Area()
}

// MinDist returns the minimum Euclidean distance from p to any point of r;
// zero when p lies inside r. This is the classic R-tree pruning bound: no
// object inside r can be closer to p than MinDist.
func (r Rect) MinDist(p Point) float64 {
	return math.Sqrt(r.MinDistSq(p))
}

// MinDistSq returns MinDist squared, sqrt-free. Range queries that compare
// against a squared radius prune with this bound directly; the monotonicity
// of x ↦ x² makes MinDistSq(p) ≤ eps² equivalent to MinDist(p) ≤ eps.
func (r Rect) MinDistSq(p Point) float64 {
	if debugChecks {
		mustSameDim(r.Min, p)
	}
	lo, hi := r.Min[:len(p)], r.Max[:len(p)]
	var sum float64
	for i := range p {
		var d float64
		switch {
		case p[i] < lo[i]:
			d = lo[i] - p[i]
		case p[i] > hi[i]:
			d = p[i] - hi[i]
		}
		sum += d * d
	}
	return sum
}

// String renders the rectangle as "[min; max]".
func (r Rect) String() string {
	var b strings.Builder
	b.WriteByte('[')
	b.WriteString(r.Min.String())
	b.WriteString("; ")
	b.WriteString(r.Max.String())
	b.WriteByte(']')
	return b.String()
}
