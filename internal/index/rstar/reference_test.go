package rstar

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// The reference half of TestInsertPathDifferential: the dynamic insert and
// delete paths exactly as they stood before the insert stopped cloning
// rectangles (geom.Rect.Extend per child in ChooseSubtree and per entry in
// every bounding-box fold, a map of reinserted levels per call). Bodies are
// verbatim, names carry a ref prefix; only sortEntries, findLeafPath and
// demote, which the change did not touch, are shared with the tree proper.

func (n *node) refMBR() geom.Rect {
	r := n.entries[0].rect.Clone()
	for _, e := range n.entries[1:] {
		r = r.Extend(e.rect)
	}
	return r
}

func (t *Tree) refInsert(p geom.Point) error {
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
	reinserted := make(map[int]bool)
	t.refInsertEntry(entry{rect: geom.RectFromPoint(p), idx: idx}, 0, reinserted)
	return nil
}

func (t *Tree) refReplaceAt(idx int, p geom.Point) error {
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
	reinserted := make(map[int]bool)
	t.refInsertEntry(entry{rect: geom.RectFromPoint(p), idx: int32(idx)}, 0, reinserted)
	return nil
}

func (t *Tree) refInsertEntry(e entry, level int, reinserted map[int]bool) {
	path := t.refChoosePath(e.rect, level)
	n := path[len(path)-1]
	n.entries = append(n.entries, e)
	t.refRefreshPath(path)
	t.refResolveOverflow(path, len(path)-1, reinserted)
}

func (t *Tree) refChoosePath(r geom.Rect, level int) []*node {
	path := []*node{t.root}
	n := t.root
	for n.level > level {
		best := t.refChooseSubtree(n, r)
		n = n.entries[best].child
		path = append(path, n)
	}
	return path
}

func (t *Tree) refChooseSubtree(n *node, r geom.Rect) int {
	if n.level == 1 {
		best, bestOverlap, bestEnl, bestArea := -1, math.Inf(1), math.Inf(1), math.Inf(1)
		for i, e := range n.entries {
			ext := e.rect.Extend(r)
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
		enl := e.rect.Enlargement(r)
		area := e.rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

func (t *Tree) refRefreshPath(path []*node) {
	for i := len(path) - 1; i > 0; i-- {
		t.refRefreshChildEntry(path[i-1], path[i])
	}
}

func (t *Tree) refRefreshChildEntry(parent, child *node) {
	for i := range parent.entries {
		if parent.entries[i].child == child {
			parent.entries[i].rect = child.refMBR()
			return
		}
	}
	panic("rstar: child not found in parent")
}

func (t *Tree) refResolveOverflow(path []*node, i int, reinserted map[int]bool) {
	for ; i >= 0; i-- {
		n := path[i]
		if len(n.entries) <= t.maxEntries {
			continue
		}
		if i > 0 && !reinserted[n.level] {
			reinserted[n.level] = true
			t.refForcedReinsert(path, i, reinserted)
			return // forcedReinsert re-enters insertEntry, which resolves further overflows
		}
		nn := t.refSplit(n)
		if i == 0 {
			old := t.root
			t.root = &node{
				level: old.level + 1,
				entries: []entry{
					{rect: old.refMBR(), child: old},
					{rect: nn.refMBR(), child: nn},
				},
			}
			return
		}
		parent := path[i-1]
		t.refRefreshChildEntry(parent, n)
		parent.entries = append(parent.entries, entry{rect: nn.refMBR(), child: nn})
	}
}

func (t *Tree) refForcedReinsert(path []*node, i int, reinserted map[int]bool) {
	n := path[i]
	center := n.refMBR().Center()
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
	t.refRefreshPath(path[:i+1])
	// Close reinsert: the entry nearest the center goes back first.
	for j := len(evicted) - 1; j >= 0; j-- {
		t.refInsertEntry(evicted[j], n.level, reinserted)
	}
}

func (t *Tree) refSplit(n *node) *node {
	axis := t.refChooseSplitAxis(n)
	k, byUpper := t.refChooseSplitIndex(n, axis)
	sortEntries(n.entries, axis, byUpper)
	splitAt := t.minEntries + k
	second := make([]entry, len(n.entries)-splitAt)
	copy(second, n.entries[splitAt:])
	n.entries = n.entries[:splitAt]
	return &node{level: n.level, entries: second}
}

func (t *Tree) refChooseSplitAxis(n *node) int {
	bestAxis, bestMargin := 0, math.Inf(1)
	for axis := 0; axis < t.dim; axis++ {
		var margin float64
		for _, byUpper := range []bool{false, true} {
			sortEntries(n.entries, axis, byUpper)
			margin += t.refDistributionMargin(n.entries)
		}
		if margin < bestMargin {
			bestAxis, bestMargin = axis, margin
		}
	}
	return bestAxis
}

func (t *Tree) refDistributionMargin(es []entry) float64 {
	var total float64
	for k := 0; k <= t.maxEntries-2*t.minEntries+1; k++ {
		splitAt := t.minEntries + k
		g1 := refBoundOf(es[:splitAt])
		g2 := refBoundOf(es[splitAt:])
		total += g1.Margin() + g2.Margin()
	}
	return total
}

func (t *Tree) refChooseSplitIndex(n *node, axis int) (k int, byUpper bool) {
	bestK, bestUpper := 0, false
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for _, upper := range []bool{false, true} {
		sortEntries(n.entries, axis, upper)
		for kk := 0; kk <= t.maxEntries-2*t.minEntries+1; kk++ {
			splitAt := t.minEntries + kk
			g1 := refBoundOf(n.entries[:splitAt])
			g2 := refBoundOf(n.entries[splitAt:])
			overlap := g1.OverlapArea(g2)
			area := g1.Area() + g2.Area()
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestK, bestUpper, bestOverlap, bestArea = kk, upper, overlap, area
			}
		}
	}
	return bestK, bestUpper
}

func refBoundOf(es []entry) geom.Rect {
	r := es[0].rect.Clone()
	for _, e := range es[1:] {
		r = r.Extend(e.rect)
	}
	return r
}

func (t *Tree) refDelete(idx int) error {
	if idx < 0 || idx >= len(t.pts) {
		return fmt.Errorf("rstar: delete of unknown point %d", idx)
	}
	t.demote()
	if t.root == nil {
		return fmt.Errorf("rstar: delete of unknown point %d", idx)
	}
	path := t.findLeafPath(t.root, int32(idx))
	if path == nil {
		return fmt.Errorf("rstar: point %d not in tree", idx)
	}
	leaf := path[len(path)-1]
	for i := range leaf.entries {
		if leaf.entries[i].child == nil && leaf.entries[i].idx == int32(idx) {
			leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
			break
		}
	}
	t.size--
	orphans := t.refCondense(path)
	// Reinsert orphaned entries, higher levels first so subtree entries
	// find a sufficiently tall tree.
	sort.SliceStable(orphans, func(a, b int) bool { return orphans[a].level > orphans[b].level })
	for _, o := range orphans {
		t.refInsertEntry(o.e, o.level, make(map[int]bool))
	}
	// Shrink the root while it is an internal node with a single child.
	for !t.root.leaf() && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if t.size == 0 {
		t.root = nil
	}
	return nil
}

func (t *Tree) refCondense(path []*node) []orphanEntry {
	var orphans []orphanEntry
	for i := len(path) - 1; i > 0; i-- {
		n := path[i]
		parent := path[i-1]
		if len(n.entries) < t.minEntries {
			for j := range parent.entries {
				if parent.entries[j].child == n {
					parent.entries = append(parent.entries[:j], parent.entries[j+1:]...)
					break
				}
			}
			for _, e := range n.entries {
				orphans = append(orphans, orphanEntry{e: e, level: n.level})
			}
			continue
		}
		t.refRefreshChildEntry(parent, n)
	}
	return orphans
}

// sameLayout reports whether two subtrees are the same tree: what
// LayoutDigest hashes, compared directly.
func sameLayout(a, b *node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.level != b.level || len(a.entries) != len(b.entries) {
		return false
	}
	for i, ea := range a.entries {
		eb := b.entries[i]
		if a.leaf() {
			if ea.idx != eb.idx {
				return false
			}
			continue
		}
		for d := range ea.rect.Min {
			if math.Float64bits(ea.rect.Min[d]) != math.Float64bits(eb.rect.Min[d]) ||
				math.Float64bits(ea.rect.Max[d]) != math.Float64bits(eb.rect.Max[d]) {
				return false
			}
		}
		if !sameLayout(ea.child, eb.child) {
			return false
		}
	}
	return true
}

// TestInsertPathDifferential drives the same interleaved Insert / Delete /
// ReplaceAt sequence through the tree and through the reference copy above
// and requires, after every step, the same tree bit for bit — every node's
// level and entry count, every routing rectangle's float bits and every
// leaf id, in order — and the same range-query answers in the same order.
func TestInsertPathDifferential(t *testing.T) {
	const steps = 5000
	for _, dim := range []int{2, 8} {
		for _, fanout := range []int{4, 32} {
			t.Run(fmt.Sprintf("dim=%d/fanout=%d", dim, fanout), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*dim + fanout)))
				got, err := NewWithFanout(nil, fanout)
				if err != nil {
					t.Fatal(err)
				}
				ref, _ := NewWithFanout(nil, fanout)
				draw := func() geom.Point {
					p := make(geom.Point, dim)
					for d := range p {
						// A coarse lattice in half of the draws: duplicates,
						// degenerate rectangles and ties in every choice.
						if p[d] = rng.Float64() * 20; rng.Intn(2) == 0 {
							p[d] = math.Floor(p[d])
						}
					}
					return p
				}
				var live, vacant []int
				for s := 0; s < steps; s++ {
					var errGot, errRef error
					switch op := rng.Intn(10); {
					case op < 3 && len(live) > 8:
						k := rng.Intn(len(live))
						idx := live[k]
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
						vacant = append(vacant, idx)
						errGot, errRef = got.Delete(idx), ref.refDelete(idx)
					case op < 6 && len(vacant) > 0:
						idx := vacant[len(vacant)-1]
						vacant = vacant[:len(vacant)-1]
						live = append(live, idx)
						p := draw()
						errGot, errRef = got.ReplaceAt(idx, p), ref.refReplaceAt(idx, p)
					default:
						live = append(live, len(got.pts))
						p := draw()
						errGot, errRef = got.Insert(p), ref.refInsert(p)
					}
					if errGot != nil || errRef != nil {
						t.Fatalf("step %d: tree %v, reference %v", s, errGot, errRef)
					}
					if !sameLayout(got.root, ref.root) {
						t.Fatalf("step %d: layouts diverge (%d live points)", s, len(live))
					}
					q, eps := draw(), 1+3*rng.Float64()
					if a, b := got.Range(q, eps), ref.Range(q, eps); !slices.Equal(a, b) {
						t.Fatalf("step %d: range answers differ: %v vs %v", s, a, b)
					}
				}
				checkInvariants(t, got)
			})
		}
	}
}
