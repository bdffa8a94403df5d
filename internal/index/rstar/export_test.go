package rstar

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// LayoutDigest pins the shape of a tree's pointer form for the external
// layout test: the SHA-256 of a pre-order walk (per node its level and entry
// count, per routing entry the bits of its rectangle, per leaf entry its
// point id) and the node count of every level, root level first. Height
// comes first because it is the cheapest call that needs the pointer nodes.
func LayoutDigest(t *Tree) (digest string, perLevel []int) {
	if t.Height() == 0 {
		return hex.EncodeToString(sha256.New().Sum(nil)), nil
	}
	var walked []byte
	put := func(v uint64) { walked = binary.LittleEndian.AppendUint64(walked, v) }
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
	sum := sha256.Sum256(walked)
	return hex.EncodeToString(sum[:]), perLevel
}
