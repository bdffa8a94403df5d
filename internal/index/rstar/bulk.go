package rstar

import (
	"fmt"
	"math"
	"sort"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// NewBulkStore builds an R*-tree over the points of a flat store with
// Sort-Tile-Recursive (STR) bulk loading (Leutenegger, Lopez, Edgington
// 1997): points are tiled into fully packed, minimally overlapping leaves,
// then the upper levels are packed the same way. Bulk loading is an order of
// magnitude faster than repeated insertion and yields better query
// performance, so it is the build for the static site data DBSCAN runs over;
// dynamic workloads (incremental DBSCAN) use New and Insert instead. Further
// Inserts into a bulk-loaded tree are valid.
//
// Point(i) serves zero-copy views into the store and leaf verification runs
// on the strided Store kernels by point id. The degenerate leaf rectangles
// alias the store views directly (leaf rects are only ever read, never
// mutated in place), so the build performs no per-point coordinate copy at
// all — the routing-level MBRs are the only rectangles cloned.
func NewBulkStore(st *geom.Store, maxEntries int) (*Tree, error) {
	if maxEntries < 4 {
		return nil, fmt.Errorf("rstar: max entries %d < 4", maxEntries)
	}
	t := &Tree{
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5,
	}
	if t.minEntries < 2 {
		t.minEntries = 2
	}
	if st.Len() == 0 {
		return t, nil
	}
	if !st.IsFinite() {
		for i, n := 0, st.Len(); i < n; i++ {
			if p := st.Point(i); !p.IsFinite() {
				return nil, fmt.Errorf("rstar: non-finite point %v at index %d", p, i)
			}
		}
	}
	t.dim = st.Dim()
	t.pts = st.Views()
	t.size = st.Len()
	t.store = st
	entries := make([]entry, t.size)
	for i, p := range t.pts {
		entries[i] = entry{rect: geom.Rect{Min: p, Max: p}, idx: int32(i)}
	}
	level := 0
	for len(entries) > t.maxEntries {
		entries = t.strPack(entries, level)
		level++
	}
	t.root = &node{level: level, entries: entries}
	return t, nil
}

// strPack tiles the entries into nodes at the given level and returns the
// routing entries referencing them.
func (t *Tree) strPack(entries []entry, level int) []entry {
	groups := strGroups(entries, t.maxEntries, t.dim)
	out := make([]entry, len(groups))
	for i, g := range groups {
		n := &node{level: level, entries: g}
		out[i] = entry{rect: n.mbr(), child: n}
	}
	return out
}

// strGroups recursively sorts and slices the entries into groups of at most
// maxEntries, balanced so no group underfills below the R*-tree minimum.
func strGroups(es []entry, maxEntries, dim int) [][]entry {
	var out [][]entry
	var rec func(es []entry, d int)
	rec = func(es []entry, d int) {
		sortByCenter(es, d)
		if d == dim-1 || len(es) <= maxEntries {
			out = append(out, chunkBalanced(es, maxEntries)...)
			return
		}
		pages := (len(es) + maxEntries - 1) / maxEntries
		slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(dim-d))))
		if slabs < 1 {
			slabs = 1
		}
		slabSize := (len(es) + slabs - 1) / slabs
		for start := 0; start < len(es); start += slabSize {
			end := start + slabSize
			if end > len(es) {
				end = len(es)
			}
			rec(es[start:end], d+1)
		}
	}
	rec(es, 0)
	return out
}

func sortByCenter(es []entry, d int) {
	sort.Slice(es, func(i, j int) bool {
		return es[i].rect.Min[d]+es[i].rect.Max[d] < es[j].rect.Min[d]+es[j].rect.Max[d]
	})
}

// chunkBalanced splits es into ceil(len/maxEntries) consecutive groups
// whose sizes differ by at most one, so even the smallest group meets the
// 40% minimum fill whenever a split is needed at all.
func chunkBalanced(es []entry, maxEntries int) [][]entry {
	n := len(es)
	if n == 0 {
		return nil
	}
	k := (n + maxEntries - 1) / maxEntries
	base := n / k
	rem := n % k
	out := make([][]entry, 0, k)
	start := 0
	for i := 0; i < k; i++ {
		size := base
		if i < rem {
			size++
		}
		group := make([]entry, size)
		copy(group, es[start:start+size])
		out = append(out, group)
		start += size
	}
	return out
}
