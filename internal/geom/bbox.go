package geom

import (
	"fmt"
	"strings"
)

// Rect is an axis-aligned bounding box described by its lower-left (Min) and
// upper-right (Max) corners: the extent of a data set, or the region a
// generator draws from.
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
