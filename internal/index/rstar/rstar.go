// Package rstar implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger (SIGMOD 1990) specialised to point data. It is the spatial access
// method the DBDC paper's DBSCAN finds its ε-neighbourhoods with on vector
// data. The pipeline's point sets are fixed before they are clustered, so the
// tree is STR-loaded (NewBulkStore) into Packed, its read-only form: one id
// permutation and per level a span and a box per node. Its leaves — a span of
// the permutation and a box — are what it offers; the levels above them find
// the leaves near a leaf, pruning subtrees by their boxes' distance bounds.
// It answers no region query: dbscan walks the near leaves. Nothing inserts
// into or deletes from a tree; incremental DBSCAN keeps its own grid of
// ε-cells.
package rstar

import "fmt"

// DefaultMaxEntries is the default fan-out M. M = 32 with m = 40%·M follows
// the original paper's recommendation for a good trade-off between fan-out
// and split quality.
const DefaultMaxEntries = 32

func checkFanout(maxEntries int) error {
	if maxEntries < 4 {
		return fmt.Errorf("rstar: max entries %d < 4", maxEntries)
	}
	return nil
}
