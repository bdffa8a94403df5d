package incdbscan

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
)

// liveCountScan recomputes the live count the way the pre-counter LiveCount
// did, so the O(1) counter can be asserted against it.
func liveCountScan(c *Clusterer) int {
	n := 0
	for i := 0; i < c.Len(); i++ {
		if !c.IsDeleted(i) {
			n++
		}
	}
	return n
}

// drift emits a slowly moving pair of blobs plus uniform noise, so the soak
// exercises cluster growth, merges, splits and dissolution as the window
// slides.
func drift(rng *rand.Rand, step int) geom.Point {
	t := float64(step) / 300
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		return geom.Point{math.Cos(t) + rng.NormFloat64()*0.25, math.Sin(t) + rng.NormFloat64()*0.25}
	case 4, 5, 6, 7:
		return geom.Point{3 - math.Cos(t) + rng.NormFloat64()*0.25, rng.NormFloat64() * 0.25}
	default:
		return geom.Point{rng.Float64()*6 - 1.5, rng.Float64()*6 - 1.5}
	}
}

// repairFootprint is the capacity, in elements, of every buffer Delete's
// repair keeps from call to call.
func repairFootprint(c *Clusterer) int {
	return cap(c.stamp) + cap(c.owner) + cap(c.next) + cap(c.near) + cap(c.scratch) +
		cap(c.lost) + cap(c.cands) + cap(c.comps)
}

// TestSlidingWindowBoundedMemory is the churn soak: a sliding window of W
// objects turns 200 times. With slot reuse the per-object arrays (Delete's
// stamps and owners among them) must stay bounded by the window size and
// the union-find forest by its compaction threshold — before the fix both
// grew with every operation — and between turn 20 and turn 200 neither the
// repair's reused buffers nor the heap may grow.
func TestSlidingWindowBoundedMemory(t *testing.T) {
	const window = 150
	const turns = 200
	rng := rand.New(rand.NewSource(41))
	c, err := New(dbscan.Params{Eps: 0.45, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var fifo []int
	var heapAt20 uint64
	var footprintAt20 int
	for s := 0; s < turns*window; s++ {
		if len(fifo) >= window {
			if err := c.Delete(fifo[0]); err != nil {
				t.Fatal(err)
			}
			fifo = append(fifo[:0], fifo[1:]...)
		}
		idx, err := c.Insert(drift(rng, s))
		if err != nil {
			t.Fatal(err)
		}
		fifo = append(fifo, idx)

		if c.Len() > window || len(c.stamp) != c.Len() || len(c.owner) != c.Len() || len(c.next) != c.Len() || len(c.deleted) != c.Len() {
			t.Fatalf("step %d: %d slots, %d stamps, %d owners, %d links, %d deleted marks for a %d-object window",
				s, c.Len(), len(c.stamp), len(c.owner), len(c.next), len(c.deleted), window)
		}
		if got, want := c.LiveCount(), liveCountScan(c); got != want {
			t.Fatalf("step %d: LiveCount=%d, scan says %d", s, got, want)
		}
		if bound := 4*c.Len() + parentSlack + window; len(c.parent) > bound {
			t.Fatalf("step %d: union-find grew to %d ids (bound %d)", s, len(c.parent), bound)
		}
		if (s+1)%250 == 0 {
			checkSurvivorsAgainstBatch(t, c)
		}
		if s+1 == 20*window {
			heapAt20, footprintAt20 = heap(), repairFootprint(c)
		}
	}
	if got := c.LiveCount(); got != window {
		t.Fatalf("steady state live count = %d, want %d", got, window)
	}
	checkSurvivorsAgainstBatch(t, c)
	// A leak of one word per operation would show as 180 × 150 × 8 bytes.
	if now := heap(); now > heapAt20+64<<10 {
		t.Errorf("heap grew from %d bytes at turn 20 to %d at turn %d", heapAt20, now, turns)
	}
	if now := repairFootprint(c); now > footprintAt20+window {
		t.Errorf("repair buffers grew from %d elements at turn 20 to %d at turn %d", footprintAt20, now, turns)
	}
}

// TestInterleavedChurnMatchesBatch drives randomized interleaved inserts and
// deletes (not window-ordered: arbitrary victims) and checks every k
// operations that the incremental labels over the live subset are
// equivalent to a fresh batch dbscan.Run on exactly those objects.
func TestInterleavedChurnMatchesBatch(t *testing.T) {
	const k = 50
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 3; trial++ {
		params := dbscan.Params{Eps: 0.35 + rng.Float64()*0.3, MinPts: 3 + rng.Intn(3)}
		c, err := New(params)
		if err != nil {
			t.Fatal(err)
		}
		var live []int
		ops := 600
		for s := 0; s < ops; s++ {
			if len(live) > 15 && rng.Float64() < 0.45 {
				j := rng.Intn(len(live))
				victim := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := c.Delete(victim); err != nil {
					t.Fatal(err)
				}
			} else {
				idx, err := c.Insert(drift(rng, s))
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, idx)
			}
			if got, want := c.LiveCount(), liveCountScan(c); got != want {
				t.Fatalf("trial %d step %d: LiveCount=%d, scan says %d", trial, s, got, want)
			}
			if (s+1)%k == 0 {
				checkSurvivorsAgainstBatch(t, c)
			}
		}
		checkSurvivorsAgainstBatch(t, c)
	}
}

// TestSlotReuseRecyclesIndices pins the reuse contract: after a delete, the
// next insert takes over the freed slot instead of growing the arrays.
func TestSlotReuseRecyclesIndices(t *testing.T) {
	c, err := New(dbscan.Params{Eps: 1, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, p := range []geom.Point{{0, 0}, {0.5, 0}, {0.25, 0.4}, {5, 5}} {
		i, err := c.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, i)
	}
	if err := c.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}
	got, err := c.Insert(geom.Point{0.5, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if got != ids[1] {
		t.Fatalf("insert after delete claimed slot %d, want recycled slot %d", got, ids[1])
	}
	if c.IsDeleted(got) {
		t.Fatal("recycled slot still marked deleted")
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d after reuse, want 4", c.Len())
	}
	if c.Labels().NumClusters() != 1 {
		t.Fatalf("cluster did not reform on the recycled slot: %v", c.Labels())
	}
	checkSurvivorsAgainstBatch(t, c)
}
