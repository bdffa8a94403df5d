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
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	perLevel = make([]int, t.root.level+1)
	var walk func(n *node)
	walk = func(n *node) {
		perLevel[t.root.level-n.level]++
		put(uint64(n.level))
		put(uint64(len(n.entries)))
		for _, e := range n.entries {
			if n.leaf() {
				put(uint64(e.idx))
				continue
			}
			for d := 0; d < t.dim; d++ {
				put(math.Float64bits(e.rect.Min[d]))
				put(math.Float64bits(e.rect.Max[d]))
			}
			walk(e.child)
		}
	}
	walk(t.root)
	return hex.EncodeToString(h.Sum(nil)), perLevel
}
