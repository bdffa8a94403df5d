// Package incdbscan provides incremental DBSCAN insertion after Ester,
// Kriegel, Sander, Wimmer and Xu (VLDB 1998). Section 4 of the DBDC paper
// lists the existence of this incremental version as one reason for
// choosing DBSCAN: a local site can keep its clustering up to date as new
// objects arrive and only ship a fresh local model to the server when the
// clustering has changed "considerably".
//
// The implementation maintains, per object, its cluster membership and core
// status, plus a union-find structure over cluster ids so that the merge
// case of an insertion is O(α(n)). Inserting object p can only change the
// membership of objects density-reachable from the objects that become core
// because of p, so the update touches one ε-neighborhood per new core
// object and nothing else.
package incdbscan

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index/rstar"
)

// Clusterer is an incrementally maintained DBSCAN clustering. The zero
// value is not usable; construct with New.
type Clusterer struct {
	params dbscan.Params
	tree   *rstar.Tree
	// labels holds provisional cluster ids; resolve through the union-find
	// before exposing them.
	labels []cluster.ID
	core   []bool
	// count caches |N_Eps(p)| including p. It is maintained exactly because
	// inserting p increments the neighborhood cardinality of precisely the
	// members of N_Eps(p).
	count []int
	// parent is the union-find forest over cluster ids.
	parent []cluster.ID
	// deleted marks removed objects.
	deleted []bool
	// free lists deleted slots available for reuse, most recent last.
	// Insert pops a slot from here before growing the per-object arrays, so
	// a steady-state sliding window (delete oldest, insert newest) keeps
	// bounded memory instead of growing O(total inserts).
	free []int
	// live counts objects inserted and not deleted, so LiveCount is O(1)
	// instead of a scan over deleted.
	live int
	// scratch is the reused ε-neighborhood buffer. Updates are inherently
	// sequential (the Clusterer is not safe for concurrent mutation), so a
	// single buffer serves every range query whose result is consumed
	// before the next query.
	scratch []int
	// newCores is Insert's seed set, reused likewise.
	newCores []int
	// queries counts the range queries issued, for the tests and benchmarks
	// that bound an update's work by count instead of by time.
	queries int

	// The rest is Delete's repair state, reused from call to call. stamp[q]
	// == epoch marks object q as collected or claimed by the current Delete
	// (no per-call set to allocate or clear); owner[q] is then the component
	// that claimed core q, and next[q] links q into one of that component's
	// lists.
	stamp []uint32
	epoch uint32
	owner []int
	next  []int
	near  []int // the victim's ε-neighbourhood
	lost  []int // cores the deletion demoted; -1 once their cluster is repaired
	cands []int // border candidates awaiting their re-check
	comps []component
}

// New returns an empty incremental clusterer.
func New(params dbscan.Params) (*Clusterer, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	tree, err := rstar.New(nil)
	if err != nil {
		return nil, err
	}
	return &Clusterer{params: params, tree: tree}, nil
}

// Len returns the number of inserted objects.
func (c *Clusterer) Len() int { return len(c.labels) }

// Point returns object i as a view of the tree's row: copy it to keep it
// past the next Insert, which may move the rows or recycle slot i.
func (c *Clusterer) Point(i int) geom.Point { return c.tree.Point(i) }

// IsCore reports whether object i currently satisfies the core condition.
func (c *Clusterer) IsCore(i int) bool { return c.core[i] }

// Params returns the clustering parameters.
func (c *Clusterer) Params() dbscan.Params { return c.params }

// find resolves a provisional cluster id to its current root.
func (c *Clusterer) find(id cluster.ID) cluster.ID {
	if id < 0 {
		return id
	}
	root := id
	for c.parent[root] != root {
		root = c.parent[root]
	}
	for c.parent[id] != root { // path compression
		c.parent[id], id = root, c.parent[id]
	}
	return root
}

// union merges two cluster ids and returns the surviving root.
func (c *Clusterer) union(a, b cluster.ID) cluster.ID {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return ra
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	c.parent[rb] = ra
	return ra
}

// neighborhood returns the ε-neighbourhood of live object q, q included, in
// the shared scratch buffer: valid until the next call.
func (c *Clusterer) neighborhood(q int) []int {
	c.queries++
	c.scratch = c.tree.RangeAppend(c.tree.Point(q), c.params.Eps, c.scratch)
	return c.scratch
}

// newClusterID allocates a fresh provisional cluster id.
func (c *Clusterer) newClusterID() cluster.ID {
	id := cluster.ID(len(c.parent))
	c.parent = append(c.parent, id)
	return id
}

// parentSlack bounds how far the union-find forest may outgrow the object
// arrays before Insert compacts it. Every cluster creation — in Insert and
// for each side a Delete splits off — allocates a provisional id that is
// never freed, so under sustained churn parent would otherwise grow O(total
// operations) even with slot reuse.
const parentSlack = 64

// maybeCompact densely renumbers cluster ids when the union-find forest has
// grown well past the object count. All ids in labels are provisional and
// resolved through find before being exposed, and every consumer of the
// labeling is renaming-invariant, so rewriting each label to a dense root
// numbering is observationally safe.
func (c *Clusterer) maybeCompact() {
	if len(c.parent) <= 4*len(c.labels)+parentSlack {
		return
	}
	// Ids are dense below len(parent), so the renumbering is a slice: a root's
	// new id, or Noise while it has none.
	remap := make([]cluster.ID, len(c.parent))
	for i := range remap {
		remap[i] = cluster.Noise
	}
	roots := 0
	for i, id := range c.labels {
		if id < 0 {
			continue
		}
		root := c.find(id)
		if remap[root] < 0 {
			remap[root] = cluster.ID(roots)
			roots++
		}
		c.labels[i] = remap[root]
	}
	c.parent = c.parent[:roots]
	for i := range c.parent {
		c.parent[i] = cluster.ID(i)
	}
}

// Insert adds an object and updates the clustering. It returns the object's
// index; indices of deleted objects are recycled, so an index uniquely
// names an object only for its lifetime. The cost is one ε-range query for
// the new object plus one per object that becomes core because of the
// insertion.
func (c *Clusterer) Insert(p geom.Point) (int, error) {
	c.maybeCompact()
	var idx int
	if n := len(c.free); n > 0 {
		// Recycle the most recently deleted slot: the per-object arrays and
		// the tree's point table stay bounded by the high-water mark of the
		// live set instead of growing with every insert.
		idx = c.free[n-1]
		if err := c.tree.ReplaceAt(idx, p); err != nil {
			return 0, err
		}
		c.free = c.free[:n-1]
		c.labels[idx] = cluster.Unclassified
		c.core[idx] = false
		c.count[idx] = 0
		c.deleted[idx] = false
	} else {
		if err := c.tree.Insert(p); err != nil {
			return 0, err
		}
		idx = len(c.labels)
		c.labels = append(c.labels, cluster.Unclassified)
		c.core = append(c.core, false)
		c.count = append(c.count, 0)
		c.deleted = append(c.deleted, false)
		c.stamp = append(c.stamp, 0)
		c.owner = append(c.owner, 0)
		c.next = append(c.next, 0)
	}
	c.live++
	neighbors := c.neighborhood(idx) // consumed before the next range query below
	c.count[idx] = len(neighbors)
	// Update cached neighborhood cardinalities and detect objects whose
	// core property flips — the seed set of the update.
	newCores := c.newCores[:0]
	for _, q := range neighbors {
		if q == idx {
			continue
		}
		c.count[q]++
		if c.count[q] == c.params.MinPts {
			c.core[q] = true
			newCores = append(newCores, q)
		}
	}
	if c.count[idx] >= c.params.MinPts {
		c.core[idx] = true
		newCores = append(newCores, idx)
	}
	c.newCores = newCores
	if len(newCores) == 0 {
		// Nothing became core: p is a border object of any neighboring
		// core's cluster, or noise.
		c.labels[idx] = cluster.Noise
		for _, q := range neighbors {
			if q != idx && c.core[q] {
				c.labels[idx] = c.find(c.labels[q])
				break
			}
		}
		return idx, nil
	}
	// Every new core object either extends the cluster it already belonged
	// to (absorption), bridges several clusters (merge), or starts a new
	// one (creation).
	for _, q := range newCores {
		if c.find(c.labels[q]) < 0 {
			c.labels[q] = c.newClusterID()
		}
	}
	for _, q := range newCores {
		qid := c.find(c.labels[q])
		// Reuses the scratch buffer: the insertion neighborhood above is
		// fully consumed before the first new-core expansion query.
		for _, r := range c.neighborhood(q) {
			if r == q {
				continue
			}
			if c.core[r] {
				if rid := c.find(c.labels[r]); rid >= 0 {
					qid = c.union(qid, rid)
				} else {
					// A core object always carries a cluster id once
					// processed; this branch only guards bootstrap order.
					c.labels[r] = qid
				}
				continue
			}
			// Non-core neighbors of a core object are border objects; claim
			// the unlabelled ones. Border objects of other clusters keep
			// their assignment (border ambiguity, as in batch DBSCAN).
			if rid := c.find(c.labels[r]); rid < 0 {
				c.labels[r] = qid
			}
		}
	}
	// p itself lies within Eps of at least one new core object (an object
	// can only become core by gaining p in its neighborhood), so it was
	// labelled above unless it is a new core itself — both cases are
	// already handled; assert for safety.
	if c.find(c.labels[idx]) < 0 {
		return idx, fmt.Errorf("incdbscan: internal error: inserted object %d left unlabelled", idx)
	}
	return idx, nil
}

// Labels returns the current labeling with all provisional ids resolved.
func (c *Clusterer) Labels() cluster.Labeling {
	out := make(cluster.Labeling, len(c.labels))
	for i, id := range c.labels {
		r := c.find(id)
		if r == cluster.Unclassified {
			r = cluster.Noise // unreachable, but never expose Unclassified
		}
		out[i] = r
	}
	return out
}

// NumClusters returns the number of distinct clusters.
func (c *Clusterer) NumClusters() int { return c.Labels().NumClusters() }
