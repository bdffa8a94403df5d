package incdbscan

import (
	"reflect"
	"slices"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// The stateful fuzzer's world: points sit on a lattice whose pitch is half
// of Eps, so neighbourhoods at exactly Eps (boundary inclusive), exact
// duplicates, one-object-wide chains and neighbourhoods of exactly MinPts
// objects are all a few bytes away; a small jitter breaks the symmetry.
// The first byte also picks the dimensionality and an offset of the first
// coordinate: near ±1e15 the lattice is coarser than the jitter, and near
// 1e300 every key is clamped and the first coordinate collapses.
const (
	fuzzPitch   = 0.25
	fuzzEps     = 2 * fuzzPitch
	fuzzCellsX  = 32
	fuzzCellsY  = 16
	fuzzCellsZ  = 4 // the third coordinate on
	fuzzMaxOps  = 300
	fuzzMinLive = 16
)

var (
	fuzzJitter  = [8]float64{0, 0, 0, 0.01, -0.01, 0.003, 0.12, -0.12}
	fuzzDims    = [4]int{2, 1, 3, 8}
	fuzzOffsets = [5]float64{0, 1e15, -1e15, 1e300, -1e300}
)

// The opcodes (byte mod 8). An insert into a full window evicts the oldest
// live object first, like stream.Site does.
const (
	fuzzInsert     = 0 // ..3; + one byte per coordinate
	fuzzDelRandom  = 4 // ..5; + victim byte
	fuzzDelOldest  = 6
	fuzzReinsertAt = 7 // + victim byte: delete it, insert a new object at its place
)

// fuzzCells is the lattice's extent along coordinate k.
func fuzzCells(k int) int {
	switch k {
	case 0:
		return fuzzCellsX
	case 1:
		return fuzzCellsY
	}
	return fuzzCellsZ
}

func fuzzCoord(b byte, cells int) float64 {
	return float64(int(b)%cells)*fuzzPitch + fuzzJitter[int(b)/cells%len(fuzzJitter)]
}

// fuzzOps builds an input for FuzzIncOps op by op.
type fuzzOps []byte

func newFuzzOps(minPts, window int) fuzzOps {
	return newShapedFuzzOps(minPts, window, 0, 0)
}

// newShapedFuzzOps starts an input of fuzzDims[dim]-dimensional points whose
// first coordinate is offset by fuzzOffsets[offset].
func newShapedFuzzOps(minPts, window, dim, offset int) fuzzOps {
	return fuzzOps{byte(minPts - 3 + 4*(dim+4*offset)), byte(window - fuzzMinLive)}
}

// insert places a 2-d object at lattice cell (cx, cy) with jitter indexes
// jx, jy.
func (o *fuzzOps) insert(cx, cy, jx, jy int) {
	*o = append(*o, fuzzInsert, byte(jx*fuzzCellsX+cx), byte(jy*fuzzCellsY+cy))
}

// insertAt places an object at lattice cell c, one entry per coordinate, all
// with jitter index j.
func (o *fuzzOps) insertAt(j int, c ...int) {
	*o = append(*o, fuzzInsert)
	for k, x := range c {
		*o = append(*o, byte(j*fuzzCells(k)+x))
	}
}
func (o *fuzzOps) delRandom(k int)  { *o = append(*o, fuzzDelRandom, byte(k)) }
func (o *fuzzOps) delOldest()       { *o = append(*o, fuzzDelOldest) }
func (o *fuzzOps) reinsertAt(k int) { *o = append(*o, fuzzReinsertAt, byte(k)) }

// disc inserts every lattice cell within r cells of (cx, cy).
func (o *fuzzOps) disc(cx, cy, r, jitter int) {
	for dx := -r; dx <= r; dx++ {
		for dy := -r; dy <= r; dy++ {
			if dx*dx+dy*dy <= r*r {
				o.insert(cx+dx, cy+dy, jitter, jitter)
			}
		}
	}
}

// runFuzzOps decodes data into operations on a fresh Clusterer and checks
// the full batch equivalence after every single one. It returns the number
// of clusters after each operation, evictions included.
func runFuzzOps(t *testing.T, data []byte) (clusters []int) {
	if len(data) < 2 {
		return nil
	}
	c, err := New(dbscan.Params{Eps: fuzzEps, MinPts: 3 + int(data[0])%4})
	if err != nil {
		t.Fatal(err)
	}
	dim, offset := fuzzDims[int(data[0])/4%4], fuzzOffsets[int(data[0])/16%len(fuzzOffsets)]
	window := fuzzMinLive + int(data[1])%113
	data = data[2:]
	var fifo []int // live objects, oldest first
	check := func() {
		t.Helper()
		if got, want := c.LiveCount(), liveCountScan(c); got != want || got != len(fifo) {
			t.Fatalf("LiveCount=%d, scan says %d, model says %d", got, want, len(fifo))
		}
		checkNeighbourhoods(t, c)
		checkSurvivorsAgainstBatch(t, c)
		checkFromCores(t, c)
		clusters = append(clusters, c.NumClusters())
	}
	remove := func(k int) geom.Point {
		t.Helper()
		victim := fifo[k]
		p := c.Point(victim)
		fifo = append(fifo[:k], fifo[k+1:]...)
		if err := c.Delete(victim); err != nil {
			t.Fatal(err)
		}
		check()
		return p
	}
	insert := func(p geom.Point) {
		t.Helper()
		if len(fifo) >= window {
			remove(0)
		}
		idx, err := c.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		fifo = append(fifo, idx)
		check()
	}
	for ops := 0; len(data) > 0 && ops < fuzzMaxOps; ops++ {
		op := data[0] % 8
		data = data[1:]
		switch {
		case op < fuzzDelRandom:
			if len(data) < dim {
				return clusters
			}
			p := make(geom.Point, dim)
			for k := range p {
				p[k] = fuzzCoord(data[k], fuzzCells(k))
			}
			p[0] += offset
			insert(p)
			data = data[dim:]
		case op == fuzzDelOldest:
			if len(fifo) > 0 {
				remove(0)
			}
		default:
			if len(data) < 1 {
				return clusters
			}
			k := data[0]
			data = data[1:]
			if len(fifo) == 0 {
				continue
			}
			p := remove(int(k) % len(fifo))
			if op == fuzzReinsertAt {
				insert(p)
			}
		}
	}
	return clusters
}

// fuzzRadii are the radii, in units of Eps, of the neighbourhoods
// checkNeighbourhoods compares: duplicates only, the clusterer's own, and
// one whose keys span more cells than a small window fills.
var fuzzRadii = [3]float64{0, 1, 3}

// checkNeighbourhoods holds the cell index to the linear scan: around every
// live object, the neighbourhood its cells return is, as a set, the live
// objects the same kernel test accepts.
func checkNeighbourhoods(t *testing.T, c *Clusterer) {
	t.Helper()
	var live []int
	for i := 0; i < c.Len(); i++ {
		if !c.IsDeleted(i) {
			live = append(live, i)
		}
	}
	var got, want []int
	for _, r := range fuzzRadii {
		eps := r * c.Params().Eps
		for _, i := range live {
			got = c.cells.rangeAppend(c.Point(i), eps, got)
			want = c.cells.rows.VerifyRangeSq(c.Point(i), live, eps*eps, want[:0])
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("neighbourhood of %d at radius %v: cells %v, scan %v", i, eps, got, want)
			}
		}
	}
}

// checkFromCores pins Labels to what a streaming upload condenses from: over
// the live set, dbscan.FromCores from the core flags and the labels must
// return exactly the batch Result over the same points.
func checkFromCores(t *testing.T, c *Clusterer) {
	t.Helper()
	labels := c.Labels()
	pts := make([]geom.Point, 0, len(labels))
	core := make([]bool, 0, len(labels))
	live := make(cluster.Labeling, 0, len(labels))
	for i := range labels {
		if !c.IsDeleted(i) {
			pts, core, live = append(pts, c.Point(i)), append(core, c.IsCore(i)), append(live, labels[i])
		}
	}
	lin, err := index.Build(index.KindLinear, pts, geom.Euclidean{}, c.Params().Eps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dbscan.Run(lin, c.Params(), dbscan.Options{CollectSpecificCores: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dbscan.FromCores(lin, c.Params(), core, live)
	if err != nil {
		t.Fatal(err)
	}
	got.RangeQueries = want.RangeQueries
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FromCores over the live set differs from the batch run:\ngot  %+v\nwant %+v", got, want)
	}
}

// fuzzSeed is a hand-built input and the cluster counts it must pass
// through, in order (other counts may lie between them).
type fuzzSeed struct {
	ops    fuzzOps
	passes []int
}

// fuzzSeeds are the stream-churn shape and the structural delete cases of
// delete_test.go, on the lattice, and the shapes the cell index must hold
// to the linear scan on: one, three and eight coordinates, duplicates,
// distances of exactly Eps, and coordinates near ±1e15 and 1e300.
func fuzzSeeds() map[string]fuzzSeed {
	// Two discs whose edges are 1.25 apart, then a ten-object chain across
	// the gap (every gap object has exactly MinPts neighbours, itself
	// included) merges them; FIFO eviction under fresh disc objects then
	// takes the old discs and finally the chain, which splits them again.
	bridge := newFuzzOps(5, 80)
	bridge.disc(3, 4, 3, 0)
	bridge.disc(14, 4, 3, 0)
	for x := 4; x <= 13; x++ {
		bridge.insert(x, 4, 3, 4)
	}
	for lap := 0; lap < 2; lap++ {
		bridge.disc(3, 4, 3, 3+lap)
		bridge.disc(14, 4, 3, 4-lap)
	}

	// Three mutually adjacent objects at MinPts 3: any delete dissolves the
	// cluster; a reinsert at the same place brings it back.
	dissolve := newFuzzOps(3, 16)
	dissolve.insert(0, 0, 0, 0)
	dissolve.insert(1, 0, 0, 0)
	dissolve.insert(0, 1, 0, 0)
	dissolve.reinsertAt(1)
	dissolve.delOldest()

	// Two clumps joined by a two-object chain with exactly MinPts
	// neighbours each: deleting either link splits the cluster, putting it
	// back merges it again.
	split := newFuzzOps(3, 16)
	for _, x := range []int{0, 7} {
		for _, d := range [][2]int{{0, 4}, {1, 4}, {0, 5}, {1, 5}} {
			split.insert(x+d[0], d[1], 0, 0)
		}
	}
	split.insert(3, 4, 0, 0)
	split.insert(5, 4, 0, 0)
	split.delRandom(8)
	split.insert(3, 4, 0, 0)
	split.reinsertAt(8)

	// Four cores and one border object at exactly Eps from the nearest
	// core; then a duplicate of a core, and the border goes.
	border := newFuzzOps(4, 16)
	for _, d := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		border.insert(d[0], d[1], 0, 0)
	}
	border.insert(3, 0, 0, 0)
	border.insert(1, 1, 0, 0)
	border.delRandom(4)
	border.delRandom(0)

	// One coordinate: two triples 1.5 apart, and an object midway at
	// exactly Eps from both ends joins them until it goes.
	line := newShapedFuzzOps(3, 16, 1, 0)
	for _, x := range []int{0, 1, 2, 6, 7, 8, 4} {
		line.insertAt(0, x)
	}
	line.delRandom(6)

	// Three coordinates: two 2×2×2 cubes (diagonal 0.43 < Eps), and FIFO
	// eviction dissolves the first.
	cubes := newShapedFuzzOps(4, 32, 2, 0)
	for _, x0 := range []int{0, 10} {
		for d := 0; d < 8; d++ {
			cubes.insertAt(0, x0+d&1, d>>1&1, d>>2)
		}
	}
	for k := 0; k < 5; k++ {
		cubes.delOldest()
	}

	// Eight coordinates: three objects that differ only past the second
	// coordinate cluster; a fourth in their cell, 1.8 away, stays noise.
	wide := newShapedFuzzOps(3, 16, 3, 0)
	wide.insertAt(0, 0, 0, 0, 0, 0, 0, 0, 0)
	wide.insertAt(0, 0, 0, 0, 0, 0, 0, 0, 1)
	wide.insertAt(0, 0, 0, 0, 0, 0, 0, 1, 0)
	wide.insertAt(0, 0, 0, 3, 3, 3, 3, 3, 3)
	wide.delOldest()

	// Four copies of one point are a cluster at MinPts 4; each delete
	// dissolves it and each reinsertion brings it back.
	dups := newFuzzOps(4, 16)
	for k := 0; k < 4; k++ {
		dups.insert(5, 5, 0, 0)
	}
	dups.reinsertAt(2)
	dups.reinsertAt(0)

	// A chain of seven objects exactly Eps apart (every other lattice
	// point) is one cluster at MinPts 3 only because the boundary counts;
	// deleting the middle one splits it. Repeated around x = 1e15, where
	// the first coordinate is still exact, and in y around x = 1e300, where
	// it collapses and every key is clamped.
	chain := func(dim, offset int, alongY bool) fuzzOps {
		o := newShapedFuzzOps(3, 16, dim, offset)
		for k := 0; k < 7; k++ {
			if alongY {
				o.insert(3, 2*k, 0, 0)
			} else {
				o.insert(2*k, 3, 0, 0)
			}
		}
		o.delRandom(3)
		return o
	}

	// Two discs around x = -1e15, where the lattice is coarser than most of
	// the jitter.
	far := newShapedFuzzOps(5, 80, 0, 2)
	far.disc(3, 4, 3, 3)
	far.disc(14, 4, 3, 6)
	far.delOldest()

	return map[string]fuzzSeed{
		"bridge-merge-then-evict": {bridge, []int{2, 1, 2}},
		"dissolve":                {dissolve, []int{1, 0, 1, 0}},
		"split":                   {split, []int{2, 1, 2, 1, 2, 1}},
		"border-only":             {border, []int{1}},
		"1d-merge-then-split":     {line, []int{2, 1, 2}},
		"3d-cubes":                {cubes, []int{1, 2, 1}},
		"8d-beyond-the-keys":      {wide, []int{1, 0}},
		"duplicates":              {dups, []int{1, 0, 1, 0, 1}},
		"eps-lattice-chain":       {chain(0, 0, false), []int{1, 2}},
		"eps-lattice-at-1e15":     {chain(0, 1, false), []int{1, 2}},
		"eps-lattice-clamped":     {chain(0, 3, true), []int{1, 2}},
		"discs-at-minus-1e15":     {far, []int{1, 2}},
	}
}

// FuzzIncOps is the stateful differential: any sequence of inserts,
// deletes of arbitrary or of the oldest live object, and reinsertions at a
// vacated place must leave the incremental clustering equivalent to a batch
// DBSCAN over the live set after every operation — core flags, noise
// status, the partition of the cores, every border object within Eps of a
// core of its own cluster, the batch Result itself once dbscan.FromCores
// completes the labels, LiveCount against a scan, and every ε-cell
// neighbourhood against a linear scan over the live rows.
func FuzzIncOps(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add([]byte(s.ops))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runFuzzOps(t, data) })
}

// TestFuzzSeedsReachTheirCases keeps the hand-built corpus honest: each
// seed must decode into the merges, splits and dissolutions it is named for.
func TestFuzzSeedsReachTheirCases(t *testing.T) {
	for name, s := range fuzzSeeds() {
		t.Run(name, func(t *testing.T) {
			next := 0
			for _, n := range runFuzzOps(t, s.ops) {
				if next < len(s.passes) && n == s.passes[next] {
					next++
				}
			}
			if next < len(s.passes) {
				t.Fatalf("cluster counts never reached %v (stopped before entry %d)", s.passes, next)
			}
		})
	}
}
