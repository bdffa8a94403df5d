package model

import (
	"sort"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/wire"
)

// ClusterMatcher assigns stable cluster ids across successive versions of a
// clustering by representative overlap, the way an object tracker matches
// detections across frames: a new cluster inherits the id of the previous
// cluster contributing the most of its representatives (ties broken toward
// the older id), each previous id is claimed by at most one new cluster,
// and clusters with no overlap get fresh, never-reused ids.
//
// The update server needs this: it re-clusters from scratch on every
// upload, and classify clients would see cluster 0 become cluster 3 across
// two answers; rematching makes ids coherent across model versions for
// every cluster that keeps a majority of its representatives.
//
// Matching is by representative point (and owning site, for global models),
// not by ε-range or raw cluster id: a representative whose neighborhood
// radius drifted still votes for its old cluster.
type ClusterMatcher struct {
	next cluster.ID
	prev map[string]cluster.ID // rep identity -> stable cluster id
}

// NewClusterMatcher returns a matcher with no history; the first model it
// relabels receives dense fresh ids.
func NewClusterMatcher() *ClusterMatcher { return &ClusterMatcher{} }

// pointIdentity keys a representative by owning site and coordinates.
func pointIdentity(siteID string, p geom.Point) string {
	w := wire.NewWriter(make([]byte, 0, 4+len(siteID)+8*len(p)))
	w.Str(siteID)
	for _, c := range p {
		w.F64(c)
	}
	return string(w.Bytes())
}

// assign computes the raw→stable id mapping for one model version given the
// per-representative identity keys and raw cluster ids, then replaces the
// matcher's history with the new version. keys and raw are positionally
// aligned; negative raw ids (noise) are ignored.
func (m *ClusterMatcher) assign(keys []string, raw []cluster.ID) map[cluster.ID]cluster.ID {
	votes := make(map[cluster.ID]map[cluster.ID]int)
	var order []cluster.ID
	for i, r := range raw {
		if r < 0 {
			continue
		}
		if _, ok := votes[r]; !ok {
			votes[r] = make(map[cluster.ID]int)
			order = append(order, r)
		}
		if s, ok := m.prev[keys[i]]; ok {
			votes[r][s]++
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	// Best previous id per raw cluster, then greedy assignment strongest
	// overlap first so a previous id contested by two successors goes to
	// the one sharing more representatives.
	type claim struct {
		raw    cluster.ID
		stable cluster.ID
		weight int
	}
	claims := make([]claim, 0, len(order))
	for _, r := range order {
		best, weight := cluster.ID(-1), 0
		for s, w := range votes[r] {
			if w > weight || (w == weight && (best < 0 || s < best)) {
				best, weight = s, w
			}
		}
		claims = append(claims, claim{raw: r, stable: best, weight: weight})
	}
	sort.Slice(claims, func(i, j int) bool {
		if claims[i].weight != claims[j].weight {
			return claims[i].weight > claims[j].weight
		}
		return claims[i].raw < claims[j].raw
	})
	assigned := make(map[cluster.ID]cluster.ID, len(order))
	claimed := make(map[cluster.ID]bool, len(order))
	for _, c := range claims {
		if c.weight > 0 && !claimed[c.stable] {
			assigned[c.raw] = c.stable
			claimed[c.stable] = true
		}
	}
	for _, r := range order { // fresh ids for the unmatched, oldest raw first
		if _, ok := assigned[r]; ok {
			continue
		}
		for claimed[m.next] { // never reuse an id still alive this version
			m.next++
		}
		assigned[r] = m.next
		claimed[m.next] = true
		m.next++
	}
	prev := make(map[string]cluster.ID, len(keys))
	for i, r := range raw {
		if r < 0 {
			continue
		}
		prev[keys[i]] = assigned[r]
	}
	m.prev = prev
	return assigned
}

// RelabelLocal rewrites the model's local cluster ids in place to stable
// ids matched against the previous call. NumClusters is preserved (the
// rewrite is a bijection on the ids present). No program pins local ids;
// the method survives because the repository benchmark (bench/, frozen)
// prices it.
func (m *ClusterMatcher) RelabelLocal(lm *LocalModel) {
	keys := make([]string, len(lm.Reps))
	raw := make([]cluster.ID, len(lm.Reps))
	for i, r := range lm.Reps {
		keys[i] = pointIdentity("", r.Point)
		raw[i] = r.LocalCluster
	}
	assigned := m.assign(keys, raw)
	for i := range lm.Reps {
		if id := lm.Reps[i].LocalCluster; id >= 0 {
			lm.Reps[i].LocalCluster = assigned[id]
		}
	}
}

// RelabelGlobal rewrites the model's global cluster ids in place to stable
// ids matched against the previous call. Representative identity includes
// the owning site, so equal points from different sites stay distinct.
func (m *ClusterMatcher) RelabelGlobal(g *GlobalModel) {
	keys := make([]string, len(g.Reps))
	raw := make([]cluster.ID, len(g.Reps))
	for i, r := range g.Reps {
		keys[i] = pointIdentity(r.SiteID, r.Point)
		raw[i] = r.GlobalCluster
	}
	assigned := m.assign(keys, raw)
	for i := range g.Reps {
		if id := g.Reps[i].GlobalCluster; id >= 0 {
			g.Reps[i].GlobalCluster = assigned[id]
		}
	}
}
