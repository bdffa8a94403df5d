// Package cluster defines the common representation of a clustering result —
// an assignment of each object to a cluster id or to noise — shared by the
// clustering algorithms, the DBDC pipeline and the quality measures.
package cluster

import (
	"fmt"
	"sort"
)

// ID identifies a cluster. Non-negative values are real clusters; Noise marks
// objects not contained in any cluster (Definition 5 of the paper).
type ID int32

// Noise is the label of objects that belong to no cluster.
const Noise ID = -1

// unclassified is used internally by algorithms while objects are pending.
const Unclassified ID = -2

// IsNoise reports whether the id marks noise.
func (id ID) IsNoise() bool { return id == Noise }

// Labeling assigns a cluster ID to every object of a data set, by object
// index. A Labeling is the output of every clustering algorithm in this
// module and the input of every quality measure.
type Labeling []ID

// NewLabeling returns a labeling of n objects, all marked Unclassified.
func NewLabeling(n int) Labeling {
	l := make(Labeling, n)
	for i := range l {
		l[i] = Unclassified
	}
	return l
}

// Len returns the number of labelled objects.
func (l Labeling) Len() int { return len(l) }

// NumClusters returns the number of distinct non-noise clusters.
func (l Labeling) NumClusters() int {
	seen := make(map[ID]struct{})
	for _, id := range l {
		if id >= 0 {
			seen[id] = struct{}{}
		}
	}
	return len(seen)
}

// NumNoise returns the number of objects labelled as noise.
func (l Labeling) NumNoise() int {
	n := 0
	for _, id := range l {
		if id == Noise {
			n++
		}
	}
	return n
}

// ClusterIDs returns the distinct non-noise cluster ids in ascending order.
func (l Labeling) ClusterIDs() []ID {
	seen := make(map[ID]struct{})
	for _, id := range l {
		if id >= 0 {
			seen[id] = struct{}{}
		}
	}
	ids := make([]ID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Members returns the object indexes assigned to cluster id, in ascending
// order.
func (l Labeling) Members(id ID) []int {
	var m []int
	for i, c := range l {
		if c == id {
			m = append(m, i)
		}
	}
	return m
}

// Clusters returns the members of every non-noise cluster keyed by id.
func (l Labeling) Clusters() map[ID][]int {
	out := make(map[ID][]int)
	for i, c := range l {
		if c >= 0 {
			out[c] = append(out[c], i)
		}
	}
	return out
}

// Sizes returns the cardinality of every non-noise cluster keyed by id.
func (l Labeling) Sizes() map[ID]int {
	out := make(map[ID]int)
	for _, c := range l {
		if c >= 0 {
			out[c]++
		}
	}
	return out
}

// Clone returns an independent copy of the labeling.
func (l Labeling) Clone() Labeling {
	out := make(Labeling, len(l))
	copy(out, l)
	return out
}

// Canonicalize renumbers clusters to consecutive ids 0..k-1 in order of first
// appearance, leaving noise untouched. Two labelings describing the same
// partition canonicalize to identical slices, which makes equality checks and
// golden tests robust against id permutations.
func (l Labeling) Canonicalize() Labeling {
	out := make(Labeling, len(l))
	remap := make(map[ID]ID)
	var next ID
	for i, c := range l {
		if c < 0 {
			out[i] = c
			continue
		}
		nc, ok := remap[c]
		if !ok {
			nc = next
			next++
			remap[c] = nc
		}
		out[i] = nc
	}
	return out
}

// EquivalentTo reports whether l and m describe the same partition of the
// same objects, ignoring cluster id naming.
func (l Labeling) EquivalentTo(m Labeling) bool {
	if len(l) != len(m) {
		return false
	}
	a, b := l.Canonicalize(), m.Canonicalize()
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Validate returns an error if any object is still Unclassified or carries an
// id other than Noise or a non-negative cluster id. Algorithms call this in
// tests to guarantee total assignments.
func (l Labeling) Validate() error {
	for i, c := range l {
		if c != Noise && c < 0 {
			return fmt.Errorf("cluster: object %d has invalid label %d", i, c)
		}
	}
	return nil
}
