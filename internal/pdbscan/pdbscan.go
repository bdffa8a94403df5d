// Package pdbscan implements an exact distributed DBSCAN in the spirit of
// PDBSCAN (Xu, Jäger, Kriegel 1999 — reference [21] of the DBDC paper):
// the data is partitioned into spatial stripes, every site receives a halo
// of width Eps from its neighbors, clusters its own objects exactly, and a
// merge phase joins clusters across stripe boundaries. Unlike DBDC the
// result is identical to a central DBSCAN run (up to border-point ties) —
// at the price of shipping real objects (halo + boundary information)
// instead of a handful of representatives. The package exists as the exact
// comparator DBDC trades against; the comparison experiment quantifies the
// quality/transmission trade-off.
package pdbscan

import (
	"fmt"
	"sort"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// Result is the outcome of a distributed exact DBSCAN run.
type Result struct {
	// Labels assigns every input object its global cluster id, in input
	// order.
	Labels cluster.Labeling
	// Core marks the core objects (identical to a central run).
	Core []bool
	// Partitions is the number of stripes used.
	Partitions int
	// HaloBytes is the transmission cost of the halo exchange (raw points).
	HaloBytes int
	// MergeBytes is the cost of the boundary information sent to the
	// server for the merge phase (points + labels + core flags).
	MergeBytes int
}

// BytesExchanged is the total transmission cost of the run.
func (r *Result) BytesExchanged() int { return r.HaloBytes + r.MergeBytes }

// site is one stripe with its halo view.
type site struct {
	// own holds the indexes (into the global point slice) this site owns.
	own []int
	// halo holds foreign indexes within Eps of the stripe.
	halo []int
	// labels are the site-local cluster ids of the own points.
	labels map[int]cluster.ID
	// core flags of the own points (exact).
	core map[int]bool
	// numClusters counts the site-local clusters.
	numClusters int
}

// Run executes distributed exact DBSCAN over the given points with the
// given number of spatial partitions. The points are partitioned into
// vertical stripes of equal cardinality along the first coordinate.
func Run(pts []geom.Point, params dbscan.Params, partitions int) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if partitions < 1 {
		return nil, fmt.Errorf("pdbscan: need at least one partition, got %d", partitions)
	}
	if len(pts) == 0 {
		return &Result{Partitions: partitions}, nil
	}
	dim := pts[0].Dim()
	res := &Result{
		Labels:     cluster.NewLabeling(len(pts)),
		Core:       make([]bool, len(pts)),
		Partitions: partitions,
	}
	sites, err := makeSites(pts, params.Eps, partitions)
	if err != nil {
		return nil, err
	}
	pointBytes := dim * 8
	for _, s := range sites {
		res.HaloBytes += len(s.halo) * pointBytes
	}
	// Local phase: exact clustering of the own objects.
	for _, s := range sites {
		if err := s.clusterLocally(pts, params); err != nil {
			return nil, err
		}
	}
	// Merge phase: global union-find over (site, local id), driven by the
	// boundary objects every site publishes.
	if err := merge(pts, params, sites, res, pointBytes); err != nil {
		return nil, err
	}
	return res, nil
}

// makeSites splits the points into stripes of equal cardinality along
// dimension 0 and attaches the Eps-halo of each stripe.
func makeSites(pts []geom.Point, eps float64, partitions int) ([]*site, error) {
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pts[order[a]][0] < pts[order[b]][0] })
	sites := make([]*site, 0, partitions)
	per := (len(pts) + partitions - 1) / partitions
	type bounds struct{ lo, hi float64 }
	var stripeBounds []bounds
	for start := 0; start < len(order); start += per {
		end := start + per
		if end > len(order) {
			end = len(order)
		}
		own := append([]int(nil), order[start:end]...)
		sites = append(sites, &site{own: own})
		stripeBounds = append(stripeBounds, bounds{
			lo: pts[order[start]][0],
			hi: pts[order[end-1]][0],
		})
	}
	// Halo: every foreign point whose first coordinate lies within Eps of
	// the stripe interval. (The eps-ball of an owned point p is contained
	// in stripe ∪ halo because |q0 − p0| ≤ dist(q, p) ≤ Eps.)
	for si, s := range sites {
		b := stripeBounds[si]
		for sj, o := range sites {
			if sj == si {
				continue
			}
			for _, j := range o.own {
				if pts[j][0] >= b.lo-eps && pts[j][0] <= b.hi+eps {
					s.halo = append(s.halo, j)
				}
			}
		}
	}
	return sites, nil
}

// clusterLocally runs DBSCAN over own+halo and keeps the (exact) results
// for the own objects only.
func (s *site) clusterLocally(pts []geom.Point, params dbscan.Params) error {
	view := make([]geom.Point, 0, len(s.own)+len(s.halo))
	viewIdx := make([]int, 0, cap(view))
	for _, i := range s.own {
		view = append(view, pts[i])
		viewIdx = append(viewIdx, i)
	}
	for _, i := range s.halo {
		view = append(view, pts[i])
		viewIdx = append(viewIdx, i)
	}
	idx, err := index.Build(index.KindRStar, view, geom.Euclidean{}, params.Eps)
	if err != nil {
		return err
	}
	local, err := dbscan.Run(idx, params, dbscan.Options{})
	if err != nil {
		return err
	}
	s.labels = make(map[int]cluster.ID, len(s.own))
	s.core = make(map[int]bool, len(s.own))
	remap := make(map[cluster.ID]cluster.ID)
	assign := func(localID cluster.ID) cluster.ID {
		nid, ok := remap[localID]
		if !ok {
			nid = cluster.ID(s.numClusters)
			s.numClusters++
			remap[localID] = nid
		}
		return nid
	}
	// Own points come first in the view. Core objects keep their local
	// cluster. A non-core object may have been claimed by a cluster whose
	// only cores in reach are halo objects — such a label has no anchor on
	// this site and the merge phase could not connect it, so border status
	// is re-derived from own cores only: the object takes the cluster of its
	// lowest-id own core neighbour, as dbscan.Run picks among all. Objects
	// without an own-core anchor become local noise and are adopted through
	// a foreign core in the merge phase (they necessarily lie in the
	// boundary region).
	for v := 0; v < len(s.own); v++ {
		gi := viewIdx[v]
		s.core[gi] = local.Core[v]
		if local.Core[v] {
			s.labels[gi] = assign(local.Labels[v])
		}
	}
	nb := dbscan.Neighbours(idx, params.Eps)
	var nbuf []int // reused ε-neighborhood buffer
	for v := 0; v < len(s.own); v++ {
		gi := viewIdx[v]
		if local.Core[v] {
			continue
		}
		s.labels[gi] = cluster.Noise
		if local.Labels[v] < 0 {
			continue
		}
		nbuf = nb.Of(v, nbuf)
		anchor := -1
		for _, w := range nbuf {
			if w < len(s.own) && local.Core[w] && (anchor < 0 || viewIdx[w] < viewIdx[anchor]) {
				anchor = w
			}
		}
		if anchor >= 0 {
			s.labels[gi] = assign(local.Labels[anchor])
		}
	}
	return nil
}

// merge performs the server-side phase: cross-stripe core pairs within Eps
// unify their clusters; boundary noise adjacent to a foreign core becomes
// a border object of that cluster.
func merge(pts []geom.Point, params dbscan.Params, sites []*site, res *Result, pointBytes int) error {
	// Boundary objects: own points within Eps (along dim 0) of the stripe
	// edge — only they can have foreign neighbors. Every site publishes
	// them with local label and core flag.
	type boundaryObj struct {
		global int
		siteID int
	}
	var boundary []boundaryObj
	for si, s := range sites {
		lo, hi := pts[s.own[0]][0], pts[s.own[0]][0]
		for _, i := range s.own {
			if pts[i][0] < lo {
				lo = pts[i][0]
			}
			if pts[i][0] > hi {
				hi = pts[i][0]
			}
		}
		for _, i := range s.own {
			if pts[i][0] <= lo+params.Eps || pts[i][0] >= hi-params.Eps {
				boundary = append(boundary, boundaryObj{global: i, siteID: si})
				res.MergeBytes += pointBytes + 4 + 1 // coords + label + core flag
			}
		}
	}
	// Union-find over (site, local id).
	parent := make(map[[2]int32][2]int32)
	var find func(x [2]int32) [2]int32
	find = func(x [2]int32) [2]int32 {
		for {
			p, ok := parent[x]
			if !ok || p == x {
				return x
			}
			gp, ok := parent[p]
			if ok && gp != p {
				parent[x] = gp
			}
			x = p
		}
	}
	union := func(a, b [2]int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	keyOf := func(siteID int, id cluster.ID) [2]int32 { return [2]int32{int32(siteID), int32(id)} }
	// Index over the boundary points for the cross pairs.
	bPts := make([]geom.Point, len(boundary))
	for i, b := range boundary {
		bPts[i] = pts[b.global]
	}
	bIdx, err := index.Build(index.KindRStar, bPts, geom.Euclidean{}, params.Eps)
	if err != nil {
		return err
	}
	nb := dbscan.Neighbours(bIdx, params.Eps)
	var nbuf []int // reused ε-neighborhood buffer
	for i, b := range boundary {
		s := sites[b.siteID]
		if !s.core[b.global] {
			continue
		}
		nbuf = nb.Of(i, nbuf)
		for _, j := range nbuf {
			o := boundary[j]
			if o.siteID == b.siteID {
				continue
			}
			if sites[o.siteID].core[o.global] {
				union(keyOf(b.siteID, s.labels[b.global]), keyOf(o.siteID, sites[o.siteID].labels[o.global]))
			}
		}
	}
	// Noise boundary objects adjacent to a foreign core become borders of
	// the cluster of the lowest-id one.
	adopted := make(map[int][2]int32)
	for i, b := range boundary {
		if sites[b.siteID].labels[b.global] != cluster.Noise {
			continue
		}
		nbuf = nb.Of(i, nbuf)
		anchor := -1
		for _, j := range nbuf {
			o := boundary[j]
			if o.siteID != b.siteID && sites[o.siteID].core[o.global] && (anchor < 0 || o.global < anchor) {
				anchor = o.global
				adopted[b.global] = keyOf(o.siteID, sites[o.siteID].labels[o.global])
			}
		}
	}
	// Resolve global labels.
	globalID := make(map[[2]int32]cluster.ID)
	var next cluster.ID
	resolve := func(k [2]int32) cluster.ID {
		r := find(k)
		id, ok := globalID[r]
		if !ok {
			id = next
			next++
			globalID[r] = id
		}
		return id
	}
	for si, s := range sites {
		for _, i := range s.own {
			res.Core[i] = s.core[i]
			switch {
			case s.labels[i] >= 0:
				res.Labels[i] = resolve(keyOf(si, s.labels[i]))
			default:
				if k, ok := adopted[i]; ok {
					res.Labels[i] = resolve(k)
				} else {
					res.Labels[i] = cluster.Noise
				}
			}
		}
	}
	return nil
}
