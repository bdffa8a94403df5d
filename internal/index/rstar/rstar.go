// Package rstar implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger (SIGMOD 1990) specialised to point data. It is the spatial access
// method the DBDC paper's DBSCAN uses for ε-range queries on vector data:
// insertion uses the R* ChooseSubtree rule, topological split (minimum
// margin axis, minimum overlap distribution) and forced reinsertion; queries
// prune subtrees via bounding-box distance bounds.
package rstar

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// Default fan-out parameters. M = 32 with m = 40%·M follows the original
// paper's recommendation for a good trade-off between fan-out and split
// quality.
const (
	DefaultMaxEntries = 32
)

// reinsertFraction is the share p of entries evicted on the first overflow
// of a level during one insertion (the paper recommends 30%).
const reinsertFraction = 0.3

// Tree is an R*-tree over points. The zero value is not usable; construct
// with New, NewWithFanout or NewBulkStore. A Tree is safe for concurrent
// readers once no writer is active.
type Tree struct {
	dim        int
	maxEntries int
	minEntries int
	// root is the pointer form every operation but the ε-range query of a
	// bulk-loaded tree runs on. It is nil while a bulk-loaded tree has only
	// its packed form; reach it through nodes.
	root   *node
	pts    []geom.Point
	size   int
	metric geom.Euclidean
	// store and packed are set by NewBulkStore and dropped together by the
	// first Insert, ReplaceAt or Delete: from then on ids and store rows no
	// longer correspond. While set, range queries descend the packed levels
	// and verify leaves on the strided Store kernels by point id.
	store  *geom.Store
	packed *packed
	// unpack guards the one materialisation of root from packed, so readers
	// that need pointer nodes may race each other and the packed queries.
	unpack sync.Once
	// ext is chooseSubtree's scratch: each candidate child's rectangle
	// extended by the one being inserted, without a clone per child.
	ext geom.Rect
}

type entry struct {
	rect  geom.Rect
	child *node // nil for leaf entries
	idx   int32 // point index, valid for leaf entries
}

type node struct {
	level   int // 0 = leaf
	entries []entry
}

func (n *node) leaf() bool { return n.level == 0 }

// mbr recomputes the minimum bounding rectangle of all entries.
func (n *node) mbr() geom.Rect { return boundOf(n.entries) }

// extendInto writes the smallest rectangle enclosing a and b into dst, whose
// corners must already have their dimensionality; dst may be a. The
// comparisons are geom.Rect.Extend's, so the result is too.
func extendInto(dst *geom.Rect, a, b geom.Rect) {
	for i := range a.Min {
		dst.Min[i], dst.Max[i] = a.Min[i], a.Max[i]
		if b.Min[i] < dst.Min[i] {
			dst.Min[i] = b.Min[i]
		}
		if b.Max[i] > dst.Max[i] {
			dst.Max[i] = b.Max[i]
		}
	}
}

// New builds an R*-tree over pts with the default fan-out. The point slice
// is retained; callers must not mutate it afterwards.
func New(pts []geom.Point) (*Tree, error) {
	return NewWithFanout(pts, DefaultMaxEntries)
}

// NewWithFanout builds an R*-tree with maximum node fan-out maxEntries
// (minimum 4). Exposed so benchmarks can ablate the fan-out choice.
func NewWithFanout(pts []geom.Point, maxEntries int) (*Tree, error) {
	if maxEntries < 4 {
		return nil, fmt.Errorf("rstar: max entries %d < 4", maxEntries)
	}
	t := &Tree{
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5, // 40% of M
	}
	if t.minEntries < 2 {
		t.minEntries = 2
	}
	for _, p := range pts {
		if err := t.Insert(p); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Point returns the i-th indexed point.
func (t *Tree) Point(i int) geom.Point { return t.pts[i] }

// Metric returns the Euclidean metric; the R*-tree prunes with Euclidean
// bounding-box bounds only.
func (t *Tree) Metric() geom.Metric { return t.metric }

// Height returns the height of the tree (0 for an empty tree, 1 for a
// root-only leaf).
func (t *Tree) Height() int {
	root := t.nodes()
	if root == nil {
		return 0
	}
	return root.level + 1
}

// Store returns the flat backing store of a bulk-store-loaded tree, or nil.
// It is nil after any Insert, ReplaceAt or Delete: the indexed ids are then
// no longer exactly the store's rows.
func (t *Tree) Store() *geom.Store { return t.store }

// nodes returns the root of the pointer form, materialising it on first use
// from the packed levels of a bulk-loaded tree.
func (t *Tree) nodes() *node {
	t.unpack.Do(func() {
		if t.packed != nil {
			t.root = t.packed.pointerNodes(t.pts)
		}
	})
	return t.root
}

// demote turns a bulk-loaded tree into a plain dynamic one ahead of a
// mutation: pointer nodes in place, the packed form and the store — which
// the mutation is about to outdate — gone. A tree without a packed form has
// no store either and is left alone.
func (t *Tree) demote() {
	if t.packed == nil {
		return
	}
	t.nodes()
	t.packed, t.store = nil, nil
}

// Insert adds a point to the tree and returns an error on dimensionality
// mismatch or non-finite coordinates.
func (t *Tree) Insert(p geom.Point) error {
	if !p.IsFinite() {
		return fmt.Errorf("rstar: non-finite point %v", p)
	}
	t.demote()
	if t.root == nil {
		t.dim = p.Dim()
		t.root = &node{level: 0}
	} else if p.Dim() != t.dim {
		return fmt.Errorf("rstar: point dimensionality %d, tree has %d", p.Dim(), t.dim)
	}
	idx := int32(len(t.pts))
	t.pts = append(t.pts, p)
	t.size++
	var reinserted uint64
	t.insertEntry(entry{rect: geom.RectFromPoint(p), idx: idx}, 0, &reinserted)
	return nil
}

// ReplaceAt re-occupies slot idx — which the caller must previously have
// removed with Delete — with a new point. The slot keeps its index, so
// callers that address objects by tree index (e.g. a sliding-window
// incremental clusterer) can recycle slots instead of growing pts forever.
// Replacing a slot that is still present would corrupt the tree with a
// duplicate entry; the tree cannot detect this cheaply, so the contract is
// the caller's to uphold.
func (t *Tree) ReplaceAt(idx int, p geom.Point) error {
	if idx < 0 || idx >= len(t.pts) {
		return fmt.Errorf("rstar: replace of unknown slot %d", idx)
	}
	if !p.IsFinite() {
		return fmt.Errorf("rstar: non-finite point %v", p)
	}
	t.demote()
	if t.root == nil {
		// Every point was deleted; the tree restarts from this one and may
		// change dimensionality like a fresh Insert would.
		t.dim = p.Dim()
		t.root = &node{level: 0}
	} else if p.Dim() != t.dim {
		return fmt.Errorf("rstar: point dimensionality %d, tree has %d", p.Dim(), t.dim)
	}
	t.pts[idx] = p
	t.size++
	var reinserted uint64
	t.insertEntry(entry{rect: geom.RectFromPoint(p), idx: int32(idx)}, 0, &reinserted)
	return nil
}

// insertEntry places e into a node at the given level and resolves overflows
// with forced reinsertion (once per level per logical insertion: reinserted
// has one bit per level, and a tree of fan-out ≥ 2 never grows 64 of them)
// or splits.
func (t *Tree) insertEntry(e entry, level int, reinserted *uint64) {
	path := t.choosePath(e.rect, level)
	n := path[len(path)-1]
	n.entries = append(n.entries, e)
	t.refreshPath(path)
	t.resolveOverflow(path, len(path)-1, reinserted)
}

// choosePath descends from the root to a node at the target level using the
// R* ChooseSubtree rule and returns the nodes visited, root first.
func (t *Tree) choosePath(r geom.Rect, level int) []*node {
	path := []*node{t.root}
	n := t.root
	for n.level > level {
		best := t.chooseSubtree(n, r)
		n = n.entries[best].child
		path = append(path, n)
	}
	return path
}

// chooseSubtree returns the index of the entry of n the rectangle r should
// descend into. When the children are leaves the rule minimises overlap
// enlargement; otherwise it minimises area enlargement (ties broken by
// smaller area).
func (t *Tree) chooseSubtree(n *node, r geom.Rect) int {
	if len(t.ext.Min) != t.dim {
		t.ext = geom.Rect{Min: make(geom.Point, t.dim), Max: make(geom.Point, t.dim)}
	}
	ext := t.ext
	if n.level == 1 {
		best, bestOverlap, bestEnl, bestArea := -1, math.Inf(1), math.Inf(1), math.Inf(1)
		for i, e := range n.entries {
			extendInto(&ext, e.rect, r)
			var dOverlap float64
			for j, other := range n.entries {
				if j == i {
					continue
				}
				dOverlap += ext.OverlapArea(other.rect) - e.rect.OverlapArea(other.rect)
			}
			enl := ext.Area() - e.rect.Area()
			area := e.rect.Area()
			if dOverlap < bestOverlap ||
				(dOverlap == bestOverlap && enl < bestEnl) ||
				(dOverlap == bestOverlap && enl == bestEnl && area < bestArea) {
				best, bestOverlap, bestEnl, bestArea = i, dOverlap, enl, area
			}
		}
		return best
	}
	best, bestEnl, bestArea := -1, math.Inf(1), math.Inf(1)
	for i, e := range n.entries {
		extendInto(&ext, e.rect, r)
		area := e.rect.Area()
		enl := ext.Area() - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// refreshPath recomputes the parent entry rectangles along the path, bottom
// up, so every ancestor tightly bounds its subtree.
func (t *Tree) refreshPath(path []*node) {
	for i := len(path) - 1; i > 0; i-- {
		t.refreshChildEntry(path[i-1], path[i])
	}
}

func (t *Tree) refreshChildEntry(parent, child *node) {
	for i := range parent.entries {
		if parent.entries[i].child == child {
			parent.entries[i].rect = child.mbr()
			return
		}
	}
	panic("rstar: child not found in parent")
}

// resolveOverflow walks up from path[i] handling any node that exceeds the
// fan-out, applying forced reinsertion the first time a level overflows
// during this insertion and splitting otherwise.
func (t *Tree) resolveOverflow(path []*node, i int, reinserted *uint64) {
	for ; i >= 0; i-- {
		n := path[i]
		if len(n.entries) <= t.maxEntries {
			continue
		}
		if bit := uint64(1) << n.level; i > 0 && *reinserted&bit == 0 {
			*reinserted |= bit
			t.forcedReinsert(path, i, reinserted)
			return // forcedReinsert re-enters insertEntry, which resolves further overflows
		}
		nn := t.split(n)
		if i == 0 {
			old := t.root
			t.root = &node{
				level: old.level + 1,
				entries: []entry{
					{rect: old.mbr(), child: old},
					{rect: nn.mbr(), child: nn},
				},
			}
			return
		}
		parent := path[i-1]
		t.refreshChildEntry(parent, n)
		parent.entries = append(parent.entries, entry{rect: nn.mbr(), child: nn})
	}
}

// forcedReinsert evicts the p entries of path[i] whose centers lie farthest
// from the node's MBR center and reinserts them (closest first), shrinking
// the node's region before a split becomes necessary.
func (t *Tree) forcedReinsert(path []*node, i int, reinserted *uint64) {
	n := path[i]
	center := n.mbr().Center()
	type distEntry struct {
		e entry
		d float64
	}
	des := make([]distEntry, len(n.entries))
	for j, e := range n.entries {
		des[j] = distEntry{e, geom.SquaredEuclidean(e.rect.Center(), center)}
	}
	sort.Slice(des, func(a, b int) bool { return des[a].d > des[b].d })
	p := int(reinsertFraction * float64(t.maxEntries))
	if p < 1 {
		p = 1
	}
	evicted := make([]entry, p)
	for j := 0; j < p; j++ {
		evicted[j] = des[j].e
	}
	kept := n.entries[:0]
	for j := p; j < len(des); j++ {
		kept = append(kept, des[j].e)
	}
	n.entries = kept
	t.refreshPath(path[:i+1])
	// Close reinsert: the entry nearest the center goes back first.
	for j := len(evicted) - 1; j >= 0; j-- {
		t.insertEntry(evicted[j], n.level, reinserted)
	}
}

// split performs the R* topological split of an overflowing node, keeps the
// first group in n and returns a new node holding the second group.
func (t *Tree) split(n *node) *node {
	axis := t.chooseSplitAxis(n)
	k, byUpper := t.chooseSplitIndex(n, axis)
	sortEntries(n.entries, axis, byUpper)
	splitAt := t.minEntries + k
	second := make([]entry, len(n.entries)-splitAt)
	copy(second, n.entries[splitAt:])
	n.entries = n.entries[:splitAt]
	return &node{level: n.level, entries: second}
}

func sortEntries(es []entry, axis int, byUpper bool) {
	sort.SliceStable(es, func(i, j int) bool {
		if byUpper {
			return es[i].rect.Max[axis] < es[j].rect.Max[axis]
		}
		if es[i].rect.Min[axis] != es[j].rect.Min[axis] {
			return es[i].rect.Min[axis] < es[j].rect.Min[axis]
		}
		return es[i].rect.Max[axis] < es[j].rect.Max[axis]
	})
}

// chooseSplitAxis returns the axis with the minimum total margin over all
// candidate distributions (sorted by lower and by upper rectangle bound).
func (t *Tree) chooseSplitAxis(n *node) int {
	bestAxis, bestMargin := 0, math.Inf(1)
	for axis := 0; axis < t.dim; axis++ {
		var margin float64
		for _, byUpper := range []bool{false, true} {
			sortEntries(n.entries, axis, byUpper)
			margin += t.distributionMargin(n.entries)
		}
		if margin < bestMargin {
			bestAxis, bestMargin = axis, margin
		}
	}
	return bestAxis
}

// distributionMargin sums the margins of both groups over every legal split
// position of the (pre-sorted) entries.
func (t *Tree) distributionMargin(es []entry) float64 {
	var total float64
	for k := 0; k <= t.maxEntries-2*t.minEntries+1; k++ {
		splitAt := t.minEntries + k
		g1 := boundOf(es[:splitAt])
		g2 := boundOf(es[splitAt:])
		total += g1.Margin() + g2.Margin()
	}
	return total
}

// chooseSplitIndex returns, for the chosen axis, the distribution (k) and
// sort direction with the minimum overlap between groups, ties broken by
// minimum combined area.
func (t *Tree) chooseSplitIndex(n *node, axis int) (k int, byUpper bool) {
	bestK, bestUpper := 0, false
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for _, upper := range []bool{false, true} {
		sortEntries(n.entries, axis, upper)
		for kk := 0; kk <= t.maxEntries-2*t.minEntries+1; kk++ {
			splitAt := t.minEntries + kk
			g1 := boundOf(n.entries[:splitAt])
			g2 := boundOf(n.entries[splitAt:])
			overlap := g1.OverlapArea(g2)
			area := g1.Area() + g2.Area()
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestK, bestUpper, bestOverlap, bestArea = kk, upper, overlap, area
			}
		}
	}
	return bestK, bestUpper
}

func boundOf(es []entry) geom.Rect {
	r := es[0].rect.Clone()
	for _, e := range es[1:] {
		extendInto(&r, r, e.rect)
	}
	return r
}
