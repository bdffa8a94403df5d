package rstar

import (
	"fmt"
	"sort"
)

// Delete removes the point with the given index from the tree. Underfull
// nodes are dissolved and their entries reinserted (the classic R-tree
// CondenseTree), so the structural invariants keep holding for any
// insert/delete sequence. The point's coordinates remain addressable via
// Point(i); only its tree entry disappears. Deleting an index twice, or an
// index never inserted, returns an error.
func (t *Tree) Delete(idx int) error {
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
	orphans := t.condense(path)
	// Reinsert orphaned entries, higher levels first so subtree entries
	// find a sufficiently tall tree.
	sort.SliceStable(orphans, func(a, b int) bool { return orphans[a].level > orphans[b].level })
	for _, o := range orphans {
		var reinserted uint64
		t.insertEntry(o.e, o.level, &reinserted)
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

// findLeafPath locates the leaf holding the entry for point idx, returning
// the node path from the root. Overlapping sibling rectangles force a DFS
// over every subtree containing the point.
func (t *Tree) findLeafPath(n *node, idx int32) []*node {
	if n.leaf() {
		for _, e := range n.entries {
			if e.idx == idx {
				return []*node{n}
			}
		}
		return nil
	}
	p := t.pts[idx]
	for _, e := range n.entries {
		if !e.rect.Contains(p) {
			continue
		}
		if sub := t.findLeafPath(e.child, idx); sub != nil {
			return append([]*node{n}, sub...)
		}
	}
	return nil
}

type orphanEntry struct {
	e     entry
	level int
}

// condense walks the path bottom-up after a removal: underfull non-root
// nodes are cut out of their parents and their remaining entries collected
// for reinsertion; surviving nodes get their routing rectangles tightened.
func (t *Tree) condense(path []*node) []orphanEntry {
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
		t.refreshChildEntry(parent, n)
	}
	return orphans
}
