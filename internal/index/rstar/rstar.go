// Package rstar implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger (SIGMOD 1990) specialised to point data. It is the spatial access
// method the DBDC paper's DBSCAN uses for ε-range queries on vector data:
// insertion uses the R* ChooseSubtree rule, topological split (minimum
// margin axis, minimum overlap distribution) and forced reinsertion; queries
// prune subtrees via bounding-box distance bounds. A fixed point set is
// STR-loaded instead (NewBulkStore) into Packed, the read-only form: one id
// permutation, per level a span and a box per node, and a descent.
package rstar

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

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

// Tree is a dynamic R*-tree over points, grown by Insert and shrunk by Delete;
// NewBulkStore builds the read-only Packed form for a fixed point set
// instead. The zero value is not usable; construct with New or
// NewWithFanout. A Tree is safe for concurrent readers once no writer is
// active.
type Tree struct {
	dim        int
	maxEntries int
	minEntries int
	root       *node
	// rows holds the points, slot i in row i; a leaf is a slice of slot ids,
	// verified on the strided Store kernels. It is nil until the first point
	// fixes the stride, for the tree's lifetime.
	rows *geom.Store
	size int

	// The write path's scratch, reused from call to call: path is the descent
	// of the current insertEntry or Delete, root first; ext is chooseLeaf's
	// candidate extended by the rectangle being placed, g1 and g2 are the two
	// groups of a split distribution, mid the two centres forcedReinsert
	// measures between; work is a leaf's ids as entries; evicted is a stack,
	// because forcedReinsert re-enters itself a level up.
	path             []step
	ext, g1, g2, mid geom.Rect
	work, evicted    []entry
	far              []distEntry
	orphans          []orphanEntry
	// leafChoice, when set, sees every leaf-level ChooseSubtree decision; the
	// tests hold it to the all-pairs rule.
	leafChoice func(es []entry, r geom.Rect, got int)
}

// entry is a routing entry: a child and the box that bounds it, whose
// corners the entry owns and the insert path extends in place. A point on
// its way into or out of a leaf travels as an entry too: idx under a
// degenerate box that aliases its row.
type entry struct {
	rect  geom.Rect
	child *node
	idx   int
}

type node struct {
	level   int     // 0 = leaf
	entries []entry // of a routing node
	ids     []int   // of a leaf
}

func (n *node) leaf() bool { return n.level == 0 }

func (n *node) count() int { return len(n.entries) + len(n.ids) }

// step is one node of a descent and the position the descent continues
// through: an entry of a routing node, an id of the leaf Delete found.
type step struct {
	n    *node
	slot int
}

// extend grows dst in place to enclose b; the comparisons are
// geom.Rect.Extend's. Minimum and maximum are exact, so extending a bounding
// box by a new member is folding the members again.
func extend(dst, b geom.Rect) {
	for i, v := range b.Min {
		if v < dst.Min[i] {
			dst.Min[i] = v
		}
		if w := b.Max[i]; w > dst.Max[i] {
			dst.Max[i] = w
		}
	}
}

// boundOf writes the bounding box of es into dst, folding in order.
func boundOf(es []entry, dst geom.Rect) {
	copy(dst.Min, es[0].rect.Min)
	copy(dst.Max, es[0].rect.Max)
	for _, e := range es[1:] {
		extend(dst, e.rect)
	}
}

// areas returns the area of rect and of rect extended to enclose r.
func areas(rect, r geom.Rect) (area, grown float64) {
	area, grown = 1, 1
	for d, lo := range rect.Min {
		hi := rect.Max[d]
		area *= hi - lo
		if r.Min[d] < lo {
			lo = r.Min[d]
		}
		if r.Max[d] > hi {
			hi = r.Max[d]
		}
		grown *= hi - lo
	}
	return area, grown
}

// New builds an R*-tree over pts with the default fan-out. The points are
// copied into the tree's own rows.
func New(pts []geom.Point) (*Tree, error) {
	return NewWithFanout(pts, DefaultMaxEntries)
}

// NewWithFanout builds an R*-tree with maximum node fan-out maxEntries
// (minimum 4). Exposed so benchmarks can ablate the fan-out choice.
func NewWithFanout(pts []geom.Point, maxEntries int) (*Tree, error) {
	if err := checkFanout(maxEntries); err != nil {
		return nil, err
	}
	t := &Tree{maxEntries: maxEntries, minEntries: max(2, maxEntries*2/5)} // m = 40% of M
	for _, p := range pts {
		if err := t.Insert(p); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func checkFanout(maxEntries int) error {
	if maxEntries < 4 {
		return fmt.Errorf("rstar: max entries %d < 4", maxEntries)
	}
	return nil
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Point returns the point in slot i as a view of the tree's row: current
// until the next Insert, overwritten when ReplaceAt recycles the slot.
func (t *Tree) Point(i int) geom.Point { return t.rows.Point(i) }

func newRect(dim int) geom.Rect {
	c := make([]float64, 2*dim)
	return geom.Rect{Min: c[:dim:dim], Max: c[dim:]}
}

// admit checks that p can join the tree. The first point ever admitted fixes
// the dimensionality, and with it the stride of the rows and of the write
// path's scratch corners.
func (t *Tree) admit(p geom.Point) error {
	switch {
	case !p.IsFinite():
		return fmt.Errorf("rstar: non-finite point %v", p)
	case t.rows == nil && p.Dim() == 0:
		return errors.New("rstar: zero-dimensional point")
	case t.rows == nil:
		t.dim, t.rows = p.Dim(), geom.NewStore(p.Dim(), 0)
		t.ext, t.g1, t.g2, t.mid = newRect(t.dim), newRect(t.dim), newRect(t.dim), newRect(t.dim)
	case p.Dim() != t.dim:
		return fmt.Errorf("rstar: point dimensionality %d, tree has %d", p.Dim(), t.dim)
	}
	return nil
}

// Insert adds a point to the tree, in a new slot, and returns an error on
// dimensionality mismatch or non-finite coordinates.
func (t *Tree) Insert(p geom.Point) error {
	if err := t.admit(p); err != nil {
		return err
	}
	t.rows.Append(p)
	t.place(t.rows.Len() - 1)
	return nil
}

// ReplaceAt re-occupies slot idx — which the caller must previously have
// removed with Delete — with a new point. The slot keeps its index, so
// callers that address objects by tree index (e.g. a sliding-window
// incremental clusterer) can recycle slots instead of growing the rows
// forever. Replacing a slot that is still present would corrupt the tree
// with a duplicate entry; the tree cannot detect this cheaply, so the
// contract is the caller's to uphold.
func (t *Tree) ReplaceAt(idx int, p geom.Point) error {
	if idx < 0 || t.rows == nil || idx >= t.rows.Len() {
		return fmt.Errorf("rstar: replace of unknown slot %d", idx)
	}
	if err := t.admit(p); err != nil {
		return err
	}
	copy(t.rows.Point(idx), p)
	t.place(idx)
	return nil
}

// place indexes the row of slot idx.
func (t *Tree) place(idx int) {
	if t.root == nil {
		t.root = t.newNode(0)
	}
	t.size++
	row := t.rows.Point(idx)
	var reinserted uint64
	t.insertEntry(entry{rect: geom.Rect{Min: row, Max: row}, idx: idx}, 0, &reinserted)
}

// newNode returns an empty node with room for its one overflow, so that it
// never grows.
func (t *Tree) newNode(level int) *node {
	if level == 0 {
		return &node{ids: make([]int, 0, t.maxEntries+1)}
	}
	return &node{level: level, entries: make([]entry, 0, t.maxEntries+1)}
}

// entryFor returns a routing entry for n under corners of its own.
func (t *Tree) entryFor(n *node) entry {
	e := entry{rect: newRect(t.dim), child: n}
	t.bound(n, e.rect)
	return e
}

// bound writes the bounding box of n's entries — of a leaf's rows — into
// dst, folding in order.
func (t *Tree) bound(n *node, dst geom.Rect) {
	if !n.leaf() {
		boundOf(n.entries, dst)
		return
	}
	for k, id := range n.ids {
		if row := t.rows.Point(id); k == 0 {
			copy(dst.Min, row)
			copy(dst.Max, row)
		} else {
			extend(dst, geom.Rect{Min: row, Max: row})
		}
	}
}

// entriesOf returns what n holds in the one shape the split and the
// reinsertion sort and fold: a routing node's entries themselves, a leaf's
// ids as entries in t.work.
func (t *Tree) entriesOf(n *node) []entry {
	if !n.leaf() {
		return n.entries
	}
	t.work = t.work[:0]
	for _, id := range n.ids {
		row := t.rows.Point(id)
		t.work = append(t.work, entry{rect: geom.Rect{Min: row, Max: row}, idx: id})
	}
	return t.work
}

// fill makes es — possibly a stretch of entriesOf(n) — the content of n.
func (t *Tree) fill(n *node, es []entry) {
	if !n.leaf() {
		n.entries = append(n.entries[:0], es...)
		return
	}
	n.ids = n.ids[:0]
	for _, e := range es {
		n.ids = append(n.ids, e.idx)
	}
}

// insertEntry places e into a node at the given level, extends the boxes on
// the way there and resolves overflows with forced reinsertion (once per
// level per logical insertion: reinserted has one bit per level, and a tree
// of fan-out ≥ 2 never grows 64 of them) or splits.
func (t *Tree) insertEntry(e entry, level int, reinserted *uint64) {
	t.choosePath(e.rect, level)
	last := len(t.path) - 1
	for _, s := range t.path[:last] {
		extend(s.n.entries[s.slot].rect, e.rect)
	}
	if n := t.path[last].n; level == 0 {
		n.ids = append(n.ids, e.idx)
	} else {
		n.entries = append(n.entries, e)
	}
	t.resolveOverflow(last, reinserted)
}

// choosePath descends from the root to a node at the target level using the
// R* ChooseSubtree rule and leaves the descent in t.path.
func (t *Tree) choosePath(r geom.Rect, level int) {
	t.path = t.path[:0]
	n := t.root
	for n.level > level {
		slot := t.chooseSubtree(n, r)
		t.path = append(t.path, step{n, slot})
		n = n.entries[slot].child
	}
	t.path = append(t.path, step{n: n})
}

// chooseSubtree returns the index of the entry of n the rectangle r should
// descend into. When the children are leaves the rule minimises overlap
// enlargement; otherwise it minimises area enlargement (ties broken by
// smaller area).
func (t *Tree) chooseSubtree(n *node, r geom.Rect) int {
	if n.level == 1 {
		best := t.chooseLeaf(n.entries, r)
		if t.leafChoice != nil {
			t.leafChoice(n.entries, r, best)
		}
		return best
	}
	best, _, _ := leastEnlargement(n.entries, r)
	return best
}

// leastEnlargement returns the entry whose area grows least when extended to
// enclose r — the smaller, then the earlier, on ties — with that growth and
// its area.
func leastEnlargement(es []entry, r geom.Rect) (best int, bestEnl, bestArea float64) {
	bestEnl, bestArea = math.Inf(1), math.Inf(1)
	for i := range es {
		area, grown := areas(es[i].rect, r)
		if enl := grown - area; enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best, bestEnl, bestArea
}

// chooseLeaf is ChooseSubtree among entries whose children are leaves: least
// overlap growth, then least area growth, then least area, then first. The
// overlap growth of entry i is the sum over j ≠ i of overlap(i extended to
// enclose r, j) − overlap(i, j), and Beckmann et al. evaluate it for every
// i: M² overlaps to place one point. It is not needed for every i. Each term
// is ≥ 0, in floating point as on paper (the extension encloses i, and
// rounding is monotone), so a partial sum only grows, and an entry that
// encloses r already has growth 0. The entry that wins the other two
// criteria is summed first, in full: at 0 — the common case, r inside some
// leaf's box — nothing can beat it; otherwise its sum is the bound at which a
// rival's is abandoned. A sum that runs to its end adds the terms of the
// all-pairs rule in that rule's order, so the choice is that rule's choice.
func (t *Tree) chooseLeaf(es []entry, r geom.Rect) int {
	first, bestEnl, bestArea := leastEnlargement(es, r)
	best, bestSum := first, t.overlapGrowth(es, first, r, math.Inf(1))
	if bestSum == 0 {
		return first
	}
	for i := range es {
		if i == first {
			continue
		}
		sum := t.overlapGrowth(es, i, r, bestSum)
		if sum > bestSum {
			continue
		}
		area, grown := areas(es[i].rect, r)
		enl := grown - area
		if sum < bestSum || (sum == bestSum && (enl < bestEnl || (enl == bestEnl && area < bestArea))) {
			best, bestSum, bestEnl, bestArea = i, sum, enl, area
		}
	}
	return best
}

// overlapGrowth returns the overlap growth of es[i] for r, or the partial
// sum that first exceeded bound.
func (t *Tree) overlapGrowth(es []entry, i int, r geom.Rect, bound float64) float64 {
	rect := es[i].rect
	if rect.ContainsRect(r) {
		return 0
	}
	copy(t.ext.Min, rect.Min)
	copy(t.ext.Max, rect.Max)
	extend(t.ext, r)
	var sum float64
	for j := range es {
		if j == i {
			continue
		}
		// A box the extension does not reach, i did not reach either: 0 − 0.
		if grown := t.ext.OverlapArea(es[j].rect); grown != 0 {
			if sum += grown - rect.OverlapArea(es[j].rect); sum > bound {
				break
			}
		}
	}
	return sum
}

// resolveOverflow walks up from t.path[i] handling any node that exceeds the
// fan-out, applying forced reinsertion the first time a level overflows
// during this insertion and splitting otherwise.
func (t *Tree) resolveOverflow(i int, reinserted *uint64) {
	for ; i >= 0; i-- {
		n := t.path[i].n
		if n.count() <= t.maxEntries {
			return
		}
		if bit := uint64(1) << n.level; i > 0 && *reinserted&bit == 0 {
			*reinserted |= bit
			t.forcedReinsert(i, reinserted)
			return // forcedReinsert re-enters insertEntry, which resolves further overflows
		}
		nn := t.split(n)
		if i == 0 {
			t.root = t.newNode(n.level + 1)
			t.root.entries = append(t.root.entries, t.entryFor(n), t.entryFor(nn))
			return
		}
		up := t.path[i-1]
		t.bound(n, up.n.entries[up.slot].rect)
		up.n.entries = append(up.n.entries, t.entryFor(nn))
	}
}

type distEntry struct {
	e entry
	d float64
}

// centreOf writes geom.Rect.Center of r into dst.
func centreOf(dst geom.Point, r geom.Rect) {
	for i := range dst {
		dst[i] = r.Min[i]*0.5 + r.Max[i]*0.5
	}
}

// forcedReinsert evicts the p entries of t.path[i] whose centers lie farthest
// from the node's MBR center — the MBR is the box its parent holds for it —
// and reinserts them (closest first), shrinking the node's region before a
// split becomes necessary.
func (t *Tree) forcedReinsert(i int, reinserted *uint64) {
	n, up := t.path[i].n, t.path[i-1]
	centreOf(t.mid.Min, up.n.entries[up.slot].rect)
	es := t.entriesOf(n)
	t.far = t.far[:0]
	for _, e := range es {
		centreOf(t.mid.Max, e.rect)
		t.far = append(t.far, distEntry{e, geom.SquaredEuclidean(t.mid.Max, t.mid.Min)})
	}
	// The order among equal distances is this sort's, and part of the tree.
	slices.SortFunc(t.far, func(a, b distEntry) int {
		if a.d > b.d {
			return -1
		}
		return 1
	})
	for j, f := range t.far {
		es[j] = f.e
	}
	p := max(1, int(reinsertFraction*float64(t.maxEntries)))
	base := len(t.evicted)
	t.evicted = append(t.evicted, es[:p]...)
	t.fill(n, es[p:])
	for k := i; k > 0; k-- { // entries left: the boxes above shrink
		up := t.path[k-1]
		t.bound(t.path[k].n, up.n.entries[up.slot].rect)
	}
	// Close reinsert: the entry nearest the center goes back first.
	for j := base + p - 1; j >= base; j-- {
		t.insertEntry(t.evicted[j], n.level, reinserted)
	}
	t.evicted = t.evicted[:base]
}

// split performs the R* topological split of an overflowing node, keeps the
// first group in n and returns a new node holding the second group.
func (t *Tree) split(n *node) *node {
	es := t.entriesOf(n)
	axis := t.chooseSplitAxis(es)
	at, byUpper := t.chooseSplitIndex(es, axis)
	sortEntries(es, axis, byUpper)
	nn := t.newNode(n.level)
	t.fill(nn, es[at:])
	t.fill(n, es[:at])
	return nn
}

func sortEntries(es []entry, axis int, byUpper bool) {
	slices.SortStableFunc(es, func(a, b entry) int {
		if !byUpper && a.rect.Min[axis] != b.rect.Min[axis] {
			return cmp.Compare(a.rect.Min[axis], b.rect.Min[axis])
		}
		return cmp.Compare(a.rect.Max[axis], b.rect.Max[axis])
	})
}

// chooseSplitAxis returns the axis with the minimum total margin over all
// candidate distributions of the M+1 entries — every cut that leaves both
// groups m of them — sorted by lower and by upper rectangle bound.
func (t *Tree) chooseSplitAxis(es []entry) int {
	bestAxis, bestMargin := 0, math.Inf(1)
	for axis := 0; axis < t.dim; axis++ {
		var margin float64
		for _, byUpper := range []bool{false, true} {
			sortEntries(es, axis, byUpper)
			var total float64
			for at := t.minEntries; at <= len(es)-t.minEntries; at++ {
				boundOf(es[:at], t.g1)
				boundOf(es[at:], t.g2)
				total += t.g1.Margin() + t.g2.Margin()
			}
			margin += total
		}
		if margin < bestMargin {
			bestAxis, bestMargin = axis, margin
		}
	}
	return bestAxis
}

// chooseSplitIndex returns, for the chosen axis, the distribution (the size
// of its first group) and sort direction with the minimum overlap between
// groups, ties broken by minimum combined area.
func (t *Tree) chooseSplitIndex(es []entry, axis int) (bestAt int, bestUpper bool) {
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for _, upper := range []bool{false, true} {
		sortEntries(es, axis, upper)
		for at := t.minEntries; at <= len(es)-t.minEntries; at++ {
			boundOf(es[:at], t.g1)
			boundOf(es[at:], t.g2)
			shared, area := t.g1.OverlapArea(t.g2), t.g1.Area()+t.g2.Area()
			if shared < bestOverlap || (shared == bestOverlap && area < bestArea) {
				bestAt, bestUpper, bestOverlap, bestArea = at, upper, shared, area
			}
		}
	}
	return bestAt, bestUpper
}
