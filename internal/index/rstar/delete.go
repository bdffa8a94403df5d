package rstar

import (
	"cmp"
	"fmt"
	"slices"
)

// Delete removes the point with the given index from the tree. Underfull
// nodes are dissolved and their entries reinserted (the classic R-tree
// CondenseTree), so the structural invariants keep holding for any
// insert/delete sequence. The point's coordinates remain addressable via
// Point(i) until ReplaceAt recycles the slot; only its tree entry
// disappears. Deleting an index twice, or an index never inserted, returns
// an error.
func (t *Tree) Delete(idx int) error {
	if idx < 0 || t.rows == nil || idx >= t.rows.Len() {
		return fmt.Errorf("rstar: delete of unknown point %d", idx)
	}
	t.path = t.path[:0]
	if t.root == nil || !t.findLeaf(t.root, idx) {
		return fmt.Errorf("rstar: point %d not in tree", idx)
	}
	leaf := t.path[len(t.path)-1]
	leaf.n.ids = slices.Delete(leaf.n.ids, leaf.slot, leaf.slot+1)
	t.size--
	t.condense()
	// Reinsert orphaned entries, higher levels first so subtree entries
	// find a sufficiently tall tree.
	slices.SortStableFunc(t.orphans, func(a, b orphanEntry) int { return cmp.Compare(b.level, a.level) })
	for _, o := range t.orphans {
		var reinserted uint64
		t.insertEntry(o.e, o.level, &reinserted)
	}
	t.orphans = t.orphans[:0]
	// Shrink the root while it is an internal node with a single child.
	for !t.root.leaf() && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if t.size == 0 {
		t.root = nil
	}
	return nil
}

// findLeaf extends t.path from n down to the leaf holding point idx, whose
// step gets the id's position; it reports whether there is one.
// Overlapping sibling rectangles force a DFS over every subtree containing
// the point.
func (t *Tree) findLeaf(n *node, idx int) bool {
	if n.leaf() {
		k := slices.Index(n.ids, idx)
		t.path = append(t.path, step{n, k})
		return k >= 0
	}
	p, depth := t.rows.Point(idx), len(t.path)
	for i := range n.entries {
		if n.entries[i].rect.Contains(p) {
			t.path = append(t.path[:depth], step{n, i})
			if t.findLeaf(n.entries[i].child, idx) {
				return true
			}
		}
	}
	return false
}

type orphanEntry struct {
	e     entry
	level int
}

// condense walks t.path bottom-up after a removal: underfull non-root nodes
// are cut out of their parents and their remaining entries collected in
// t.orphans for reinsertion; surviving nodes get their routing rectangles
// tightened.
func (t *Tree) condense() {
	for i := len(t.path) - 1; i > 0; i-- {
		n, up := t.path[i].n, t.path[i-1]
		if n.count() >= t.minEntries {
			t.bound(n, up.n.entries[up.slot].rect)
			continue
		}
		up.n.entries = slices.Delete(up.n.entries, up.slot, up.slot+1)
		for _, e := range t.entriesOf(n) {
			t.orphans = append(t.orphans, orphanEntry{e: e, level: n.level})
		}
	}
}
