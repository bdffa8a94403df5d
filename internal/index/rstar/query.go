package rstar

import "github.com/dbdc-go/dbdc/internal/geom"

// Range returns the indexes of all points within Euclidean distance eps of
// q, boundary inclusive. Subtrees are pruned with the MBR distance bound.
func (t *Tree) Range(q geom.Point, eps float64) []int {
	return t.RangeAppend(q, eps, nil)
}

// RangeAppend is Range writing into buf (reused after truncation to zero
// length), the allocation-free variant incremental DBSCAN uses. The R*-tree
// is Euclidean-only, so both the MBR pruning bound and the leaf verification
// run entirely in squared space (no sqrt on the hot path).
func (t *Tree) RangeAppend(q geom.Point, eps float64, buf []int) []int {
	out := buf[:0]
	if t.root != nil {
		out = t.rangeSearch(t.root, q, eps*eps, out)
	}
	if len(out) == 0 {
		return buf[:0] // nil stays nil: the fused verifiers grow out before they know the verdict
	}
	return out
}

// rangeSearch descends the nodes whose box lies within eps2 of q and hands
// each leaf reached to the fused verify kernel.
func (t *Tree) rangeSearch(n *node, q geom.Point, eps2 float64, out []int) []int {
	if n.leaf() {
		return t.rows.VerifyRangeSq(q, n.ids, eps2, out)
	}
	for i := range n.entries {
		if e := &n.entries[i]; e.rect.MinDistSq(q) <= eps2 {
			out = t.rangeSearch(e.child, q, eps2, out)
		}
	}
	return out
}
