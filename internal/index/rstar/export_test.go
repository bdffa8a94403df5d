package rstar

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// LayoutDigest pins the shape of a bulk-loaded tree for the external layout
// test: the SHA-256 of a pre-order walk (per node its level and entry count,
// per routing entry the bits of its rectangle, per leaf entry its point id)
// and the node count of every level, root level first — the bytes the pointer
// nodes materialised from the packed levels produced up to commit 754e8f5.
// A tree that is one leaf is walked from that leaf: the pointer tree's root.
func LayoutDigest(t *Packed) (digest string, perLevel []int) {
	var walked []byte
	put := func(v uint64) { walked = binary.LittleEndian.AppendUint64(walked, v) }
	if t.Len() > 0 {
		top, root := len(t.levels), span{0, t.rootCount}
		if t.NumLeaves() == 1 {
			top, root = 0, t.levels[0].spans[0]
		}
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
		walk(top, root)
	}
	sum := sha256.Sum256(walked)
	return hex.EncodeToString(sum[:]), perLevel
}
