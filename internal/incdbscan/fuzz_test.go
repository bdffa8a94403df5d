package incdbscan

import (
	"testing"

	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
)

// The stateful fuzzer's world: points sit on a lattice whose pitch is half
// of Eps, so neighbourhoods at exactly Eps (boundary inclusive), exact
// duplicates, one-object-wide chains and neighbourhoods of exactly MinPts
// objects are all a few bytes away; a small jitter breaks the symmetry.
const (
	fuzzPitch   = 0.25
	fuzzEps     = 2 * fuzzPitch
	fuzzCellsX  = 32
	fuzzCellsY  = 16
	fuzzMaxOps  = 300
	fuzzMinLive = 16
)

var fuzzJitter = [8]float64{0, 0, 0, 0.01, -0.01, 0.003, 0.12, -0.12}

// The opcodes (byte mod 8). An insert into a full window evicts the oldest
// live object first, like stream.Site does.
const (
	fuzzInsert     = 0 // ..3; + x byte, y byte
	fuzzDelRandom  = 4 // ..5; + victim byte
	fuzzDelOldest  = 6
	fuzzReinsertAt = 7 // + victim byte: delete it, insert a new object at its place
)

func fuzzCoord(b byte, cells int) float64 {
	return float64(int(b)%cells)*fuzzPitch + fuzzJitter[int(b)/cells%len(fuzzJitter)]
}

// fuzzOps builds an input for FuzzIncOps op by op.
type fuzzOps []byte

func newFuzzOps(minPts, window int) fuzzOps {
	return fuzzOps{byte(minPts - 3), byte(window - fuzzMinLive)}
}

// insert places an object at lattice cell (cx, cy) with jitter indexes jx, jy.
func (o *fuzzOps) insert(cx, cy, jx, jy int) {
	*o = append(*o, fuzzInsert, byte(jx*fuzzCellsX+cx), byte(jy*fuzzCellsY+cy))
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
	window := fuzzMinLive + int(data[1])%113
	data = data[2:]
	var fifo []int // live objects, oldest first
	check := func() {
		t.Helper()
		if got, want := c.LiveCount(), liveCountScan(c); got != want || got != len(fifo) {
			t.Fatalf("LiveCount=%d, scan says %d, model says %d", got, want, len(fifo))
		}
		checkSurvivorsAgainstBatch(t, c)
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
			if len(data) < 2 {
				return clusters
			}
			insert(geom.Point{fuzzCoord(data[0], fuzzCellsX), fuzzCoord(data[1], fuzzCellsY)})
			data = data[2:]
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

// fuzzSeed is a hand-built input and the cluster counts it must pass
// through, in order (other counts may lie between them).
type fuzzSeed struct {
	ops    fuzzOps
	passes []int
}

// fuzzSeeds are the stream-churn shape and the structural delete cases of
// delete_test.go, on the lattice.
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

	return map[string]fuzzSeed{
		"bridge-merge-then-evict": {bridge, []int{2, 1, 2}},
		"dissolve":                {dissolve, []int{1, 0, 1, 0}},
		"split":                   {split, []int{2, 1, 2, 1, 2, 1}},
		"border-only":             {border, []int{1}},
	}
}

// FuzzIncOps is the stateful differential: any sequence of inserts,
// deletes of arbitrary or of the oldest live object, and reinsertions at a
// vacated place must leave the incremental clustering equivalent to a batch
// DBSCAN over the live set after every operation — core flags, noise
// status, the partition of the cores, every border object within Eps of a
// core of its own cluster, and LiveCount against a scan.
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
