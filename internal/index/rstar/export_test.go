package rstar

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// height returns the height of the tree: 0 for an empty tree, 1 for a
// root-only leaf.
func (t *Tree) height() int {
	if t.root == nil {
		return 0
	}
	return t.root.level + 1
}

// LayoutDigest pins the shape of a tree — a dynamic *Tree or a bulk-loaded
// *Packed — for the external layout test: the SHA-256 of a pre-order walk
// (per node its level and entry count, per routing entry the bits of its
// rectangle, per leaf entry its point id) and the node count of every level,
// root level first. Both forms emit the same bytes for the same tree: the
// packed walk is the one the pointer nodes materialised from the packed levels
// produced up to commit 754e8f5.
func LayoutDigest(tree any) (digest string, perLevel []int) {
	var walked []byte
	put := func(v uint64) { walked = binary.LittleEndian.AppendUint64(walked, v) }
	switch t := tree.(type) {
	case *Tree:
		if t.root == nil {
			break
		}
		perLevel = make([]int, t.root.level+1)
		var walk func(n *node)
		walk = func(n *node) {
			perLevel[t.root.level-n.level]++
			put(uint64(n.level))
			put(uint64(n.count()))
			for _, id := range n.ids {
				put(uint64(id))
			}
			for _, e := range n.entries {
				for d := 0; d < t.dim; d++ {
					put(math.Float64bits(e.rect.Min[d]))
					put(math.Float64bits(e.rect.Max[d]))
				}
				walk(e.child)
			}
		}
		walk(t.root)
	case *Packed:
		if t.Len() == 0 {
			break
		}
		top := len(t.levels)
		perLevel = make([]int, top+1)
		var walk func(level int, s span)
		walk = func(level int, s span) {
			perLevel[top-level]++
			put(uint64(level))
			put(uint64(s.count))
			if level == 0 {
				for _, id := range t.perm[s.first : s.first+s.count] {
					put(uint64(id))
				}
				return
			}
			lv := &t.levels[level-1]
			for i := s.first; i < s.first+s.count; i++ {
				b := lv.bounds[2*t.dim*int(i):]
				for d := 0; d < t.dim; d++ {
					put(math.Float64bits(b[d]))
					put(math.Float64bits(b[t.dim+d]))
				}
				walk(level-1, lv.spans[i])
			}
		}
		walk(top, span{0, t.rootCount})
	default:
		panic("rstar: LayoutDigest of a non-tree")
	}
	sum := sha256.Sum256(walked)
	return hex.EncodeToString(sum[:]), perLevel
}
