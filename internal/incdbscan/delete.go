package incdbscan

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
)

// component is a set of surviving cores of one affected cluster that
// Delete's connectivity check knows to be density-connected: it starts as a
// single seed and grows by traversal and by merging with components it
// touches. Its two lists are threaded through Clusterer.next (-1 ends one),
// so a check allocates nothing and keeps nothing that grows.
type component struct {
	parent int // union-find over the components of one check
	// head and tail delimit the claimed cores whose neighbourhoods are yet
	// to be expanded, oldest first.
	head, tail int
	// done chains the expanded cores and the cluster's non-core members
	// first seen from them.
	done int
	// fresh is the id given to the component when its traversal ran dry
	// while others were still open (a real split); negative until then.
	fresh cluster.ID
}

// Delete removes object i from the clustering and releases its slot for
// reuse by a later Insert (the deletion case of Ester et al. 1998).
// Removing an object can demote neighbours from core to non-core, which can
// shrink, split or dissolve their clusters — and only theirs. The update
// touches what those lost cores touched, not the clusters' members:
//
//  1. one query for i updates the cached cardinalities and finds the lost
//     cores (i itself, if it was core). With none, the update ends here.
//  2. one query per lost core collects, per cluster, the seeds — surviving
//     cores next to a lost one — and the border candidates: the cluster's
//     non-core members in reach, the lost cores included.
//  3. a cluster is intact iff its seeds are still density-connected (repair
//     decides that; nothing is relabelled unless the cluster really split).
//  4. one query per border candidate: it keeps its cluster if a core of it
//     is still in reach, else joins the first core in reach, else is noise.
//
// A deleted object keeps its index until a later Insert recycles the slot;
// while vacant, Labels reports it as Noise and IsDeleted tells it apart
// from genuine noise.
func (c *Clusterer) Delete(i int) error {
	if i < 0 || i >= len(c.labels) {
		return fmt.Errorf("incdbscan: delete of unknown object %d", i)
	}
	if c.deleted[i] {
		return fmt.Errorf("incdbscan: object %d already deleted", i)
	}
	// The victim's neighbourhood (pre-deletion, i included) stays in near
	// while the repair's queries reuse scratch.
	c.near, c.scratch = c.neighborhood(i), c.near
	if err := c.tree.Delete(i); err != nil {
		return err
	}
	c.deleted[i] = true
	c.free = append(c.free, i)
	c.live--

	c.lost = c.lost[:0]
	if c.core[i] {
		c.core[i] = false
		c.lost = append(c.lost, i)
	}
	for _, q := range c.near {
		if q == i {
			continue
		}
		c.count[q]--
		if c.core[q] && c.count[q] == c.params.MinPts-1 {
			c.core[q] = false
			c.lost = append(c.lost, q)
		}
	}
	if len(c.lost) > 0 {
		if c.epoch++; c.epoch == 0 { // wrapped: stale stamps could match again
			clear(c.stamp)
			c.epoch = 1
		}
		c.stamp[i] = c.epoch // never a seed or a candidate
		c.cands = c.cands[:0]
		for k := range c.lost {
			if c.lost[k] >= 0 { // else an earlier repair covered its cluster
				c.repair(k, i)
			}
		}
		for _, b := range c.cands {
			own, label := c.find(c.labels[b]), cluster.Noise
			for _, r := range c.neighborhood(b) {
				if !c.core[r] {
					continue
				}
				if id := c.find(c.labels[r]); id == own {
					label = own
					break
				} else if label < 0 {
					label = id
				}
			}
			c.labels[b] = label
		}
	}
	c.labels[i] = cluster.Noise
	return nil
}

// repair restores the cluster of lost core c.lost[first] after the deletion
// of victim: it consumes every lost core of that cluster, collects seeds and
// border candidates from their neighbourhoods and splits the cluster iff
// the seeds are no longer density-connected. Seeds within Eps of each other
// are connected without a query, the common case inside a dense cluster.
// What is left open is decided by traversing the core graph from all seeds
// in lock-step, one expansion per open component per round: components that
// touch merge, one that runs dry is a complete new cluster and gets a fresh
// id, and the check stops when a single component is open — that one keeps
// the old id and is never traversed to its end, so a split costs in the
// order of its smaller sides and an intact cluster costs until the seeds
// meet.
func (c *Clusterer) repair(first, victim int) {
	id := c.find(c.labels[c.lost[first]])
	c.comps = c.comps[:0]
	for k := first; k < len(c.lost); k++ {
		l := c.lost[k]
		if l < 0 || c.find(c.labels[l]) != id {
			continue
		}
		c.lost[k] = -1
		reach := c.near
		if l != victim {
			reach = c.neighborhood(l)
		}
		for _, r := range reach {
			switch {
			case c.stamp[r] == c.epoch:
			case c.core[r]:
				c.stamp[r], c.owner[r] = c.epoch, len(c.comps)
				c.addComponent(r)
			case c.find(c.labels[r]) == id:
				c.stamp[r] = c.epoch
				c.cands = append(c.cands, r)
			}
		}
	}
	open := len(c.comps)
	eps2 := c.params.Eps * c.params.Eps
	for a := 1; a < len(c.comps) && open > 1; a++ {
		// A merge appends to the root's list, so head is still each
		// component's own seed here.
		pa := c.tree.Point(c.comps[a].head)
		for b := 0; b < a; b++ {
			ra, rb := c.root(a), c.root(b)
			if ra != rb && geom.SquaredEuclidean(pa, c.tree.Point(c.comps[b].head)) <= eps2 {
				c.merge(ra, rb)
				open--
			}
		}
	}
	for open > 1 {
		for a := 0; a < len(c.comps) && open > 1; a++ {
			k := &c.comps[a]
			if k.parent != a || k.fresh >= 0 {
				continue // merged away, or already split off
			}
			if k.head < 0 {
				k.fresh = c.newClusterID()
				open--
				continue
			}
			q := k.head
			if k.head = c.next[q]; k.head < 0 {
				k.tail = -1
			}
			c.next[q], k.done = k.done, q
			for _, r := range c.neighborhood(q) {
				switch seen := c.stamp[r] == c.epoch; {
				case c.core[r] && !seen:
					c.stamp[r], c.owner[r] = c.epoch, a
					c.enqueue(k, r)
				case c.core[r]:
					if b := c.root(c.owner[r]); b != a {
						c.merge(a, b)
						open--
					}
				case !seen && c.find(c.labels[r]) == id:
					c.stamp[r] = c.epoch
					c.next[r], k.done = k.done, r
				}
			}
		}
	}
	// Only components that ran dry move: their cores, and the borders first
	// seen from those (a border the side that stays also reaches may go
	// either way, as in batch DBSCAN; one that is a candidate is re-checked
	// by Delete).
	for a := range c.comps {
		if fresh := c.comps[c.root(a)].fresh; fresh >= 0 {
			for q := c.comps[a].done; q >= 0; q = c.next[q] {
				c.labels[q] = fresh
			}
		}
	}
}

// addComponent opens a component holding one seed.
func (c *Clusterer) addComponent(seed int) {
	c.comps = append(c.comps, component{parent: len(c.comps), head: -1, tail: -1, done: -1, fresh: cluster.Noise})
	c.enqueue(&c.comps[len(c.comps)-1], seed)
}

// enqueue appends core r to k's pending list.
func (c *Clusterer) enqueue(k *component, r int) {
	c.next[r] = -1
	if k.tail < 0 {
		k.head = r
	} else {
		c.next[k.tail] = r
	}
	k.tail = r
}

// root resolves a component to its union-find root, halving the path.
func (c *Clusterer) root(a int) int {
	for c.comps[a].parent != a {
		c.comps[a].parent = c.comps[c.comps[a].parent].parent
		a = c.comps[a].parent
	}
	return a
}

// merge folds root component b into root component a: a takes over b's
// pending cores; what b already expanded stays on b's done list, under a's
// root.
func (c *Clusterer) merge(a, b int) {
	ka, kb := &c.comps[a], &c.comps[b]
	kb.parent = a
	if kb.head < 0 {
		return
	}
	if ka.tail < 0 {
		ka.head = kb.head
	} else {
		c.next[ka.tail] = kb.head
	}
	ka.tail = kb.tail
}

// IsDeleted reports whether object i was removed with Delete.
func (c *Clusterer) IsDeleted(i int) bool { return i < len(c.deleted) && c.deleted[i] }

// LiveCount returns the number of objects inserted and not deleted. It is
// O(1): Insert and Delete maintain the counter, instead of the former scan
// over the deleted marks on every call.
func (c *Clusterer) LiveCount() int { return c.live }
