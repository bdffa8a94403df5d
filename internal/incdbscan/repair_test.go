package incdbscan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
)

// The window-turn stream: the shape of the stream-churn benchmark workload.
// Three uniform discs sit in a row, their edges 1.1 apart (more than 2·Eps,
// so only a chain of objects joins two of them); twice per period a
// ten-object chain is laid across a gap, and a window later its eviction
// splits the pair again. A period is two windows, so the window's content
// really turns over.
const (
	turnWindow = 512
	turnPeriod = 2 * turnWindow
	discRadius = 1.4
	discPitch  = 2*discRadius + 1.1
)

var turnParams = dbscan.Params{Eps: 0.5, MinPts: 5}

func turnStream(seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, turnPeriod)
	for i := range pts {
		k, mover := i%16, i/16
		gap := -1
		switch {
		case k == 15 && mover >= 2 && mover < 12:
			gap, mover = 0, mover-2
		case k == 15 && mover >= 18 && mover < 28:
			gap, mover = 1, mover-18
		}
		switch {
		case k < 12:
			a, r := 2*math.Pi*rng.Float64(), discRadius*math.Sqrt(rng.Float64())
			pts[i] = geom.Point{float64(k%3)*discPitch + r*math.Cos(a), r * math.Sin(a)}
		case gap >= 0:
			from := float64(gap)*discPitch + discRadius - 0.3
			pts[i] = geom.Point{from + 1.7*float64(mover)/9 + (rng.Float64()-0.5)*0.04, (rng.Float64() - 0.5) * 0.1}
		default: // background, too sparse to ever be core
			pts[i] = geom.Point{-10 + 25*rng.Float64(), 4 + 20*rng.Float64()}
		}
	}
	return pts
}

// turner slides a FIFO window of turnWindow objects over the periodic
// stream.
type turner struct {
	c      *Clusterer
	period []geom.Point
	fifo   []int
	next   int
}

func newTurner(tb testing.TB, seed int64) *turner {
	return newTurnerOver(tb, turnStream(seed))
}

// widen embeds a 2-d stream in dim dimensions: the extra coordinates are
// uniform in ±0.05, a shell thin beside Eps, so the discs and the chains
// stay what they were. At dim 1 it keeps the first coordinate alone.
func widen(pts []geom.Point, dim int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = append(make(geom.Point, 0, dim), p[:min(dim, len(p))]...)
		for len(out[i]) < dim {
			out[i] = append(out[i], (rng.Float64()-0.5)*0.1)
		}
	}
	return out
}

func newTurnerOver(tb testing.TB, period []geom.Point) *turner {
	tb.Helper()
	c, err := New(turnParams)
	if err != nil {
		tb.Fatal(err)
	}
	w := &turner{c: c, period: period}
	for len(w.fifo) < turnWindow {
		w.insert(tb)
	}
	return w
}

func (w *turner) insert(tb testing.TB) {
	idx, err := w.c.Insert(w.period[w.next%turnPeriod])
	if err != nil {
		tb.Fatal(err)
	}
	w.next++
	w.fifo = append(w.fifo, idx)
}

func (w *turner) evict(tb testing.TB) {
	if err := w.c.Delete(w.fifo[0]); err != nil {
		tb.Fatal(err)
	}
	w.fifo = append(w.fifo[:0], w.fifo[1:]...)
}

// TestWindowTurnMatchesBatchEveryOp is the workload-shaped differential:
// three full window turns — a merge and a split of each disc pair among
// them — with the complete batch comparison after every single eviction.
func TestWindowTurnMatchesBatchEveryOp(t *testing.T) {
	w := newTurner(t, 5)
	seen := map[int]bool{}
	for s := 0; s < 3*turnWindow; s++ {
		w.evict(t)
		checkSurvivorsAgainstBatch(t, w.c)
		w.insert(t)
		seen[w.c.NumClusters()] = true
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("the turns never both merged and split the discs: cluster counts seen %v", seen)
	}
}

// TestDeleteWorkIsBounded pins the cost of a window turn by count, not by
// time: the range queries per eviction, averaged over a full turn that
// includes a merge and a split of each disc pair: ≈ 1.6 now, where the
// whole-cluster re-expansion this repair replaced spent ≈ 173.
func TestDeleteWorkIsBounded(t *testing.T) {
	w := newTurner(t, 1)
	var deletes, spent int
	for s := 0; s < 2*turnWindow; s++ {
		before := w.c.queries
		w.evict(t)
		spent += w.c.queries - before
		deletes++
		w.insert(t)
	}
	if mean := float64(spent) / float64(deletes); mean > 8 {
		t.Fatalf("%.1f range queries per Delete over %d evictions, want ≤ 8", mean, deletes)
	}
}

// TestInteriorDeleteCostModel deletes interior cores of a 200-object disc
// and requires each Delete to issue exactly the queries the cost model
// names: one for the victim, one per other lost core, one per border
// candidate — the seeds of an interior deletion are within Eps of each
// other, so connectivity costs none.
func TestInteriorDeleteCostModel(t *testing.T) {
	params := dbscan.Params{Eps: 0.5, MinPts: 20} // of ≈ 25 neighbours: lost cores are common
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 200)
	for i := range pts {
		a, r := 2*math.Pi*rng.Float64(), discRadius*math.Sqrt(rng.Float64())
		pts[i] = geom.Point{r * math.Cos(a), r * math.Sin(a)}
	}
	var withLost, withCands int
	for victim, p := range pts {
		if math.Hypot(p[0], p[1]) > 0.8 {
			continue
		}
		c, _ := New(params)
		for _, q := range pts {
			if _, err := c.Insert(q); err != nil {
				t.Fatal(err)
			}
		}
		if !c.IsCore(victim) {
			continue
		}
		// The model, from the state before the deletion.
		id := c.find(c.labels[victim])
		lost := []int{victim}
		for _, q := range c.cells.rangeAppend(p, params.Eps, nil) {
			if q != victim && c.core[q] && c.count[q] == params.MinPts {
				lost = append(lost, q)
			}
		}
		isLost := map[int]bool{}
		for _, l := range lost {
			isLost[l] = true
		}
		cands := map[int]bool{}
		for _, l := range lost {
			for _, r := range c.cells.rangeAppend(c.Point(l), params.Eps, nil) {
				if r != victim && (!c.core[r] || isLost[r]) && c.find(c.labels[r]) == id {
					cands[r] = true
				}
			}
		}
		before := c.queries
		if err := c.Delete(victim); err != nil {
			t.Fatal(err)
		}
		if got, want := c.queries-before, 1+(len(lost)-1)+len(cands); got != want {
			t.Fatalf("victim %d: %d queries, model says 1 + %d lost + %d candidates", victim, got, len(lost)-1, len(cands))
		}
		checkSurvivorsAgainstBatch(t, c)
		if len(lost) > 1 {
			withLost++
		}
		if len(cands) > 0 {
			withCands++
		}
	}
	if withLost == 0 || withCands == 0 {
		t.Fatalf("vacuous: %d victims cost a neighbour its core status, %d had candidates", withLost, withCands)
	}
}

// TestSplitRelabelsSmallSideOnly splits a 300 + 20 object dumbbell at its
// handle: the 20-object side must get the new id, the large side keep the
// old one untouched, and the traversal stop in the order of the small side.
func TestSplitRelabelsSmallSideOnly(t *testing.T) {
	c, _ := New(dbscan.Params{Eps: 0.5, MinPts: 3})
	rng := rand.New(rand.NewSource(9))
	disc := func(n int, cx, radius float64) (ids []int) {
		for i := 0; i < n; i++ {
			a, r := 2*math.Pi*rng.Float64(), radius*math.Sqrt(rng.Float64())
			idx, err := c.Insert(geom.Point{cx + r*math.Cos(a), r * math.Sin(a)})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, idx)
		}
		return ids
	}
	large := disc(300, 0, discRadius)
	// The handle: objects 0.3 apart, so each has exactly MinPts neighbours
	// (itself and one on either side) and every one of them is a cut.
	var handle []int
	for x := discRadius + 0.1; x < 3.3; x += 0.3 {
		idx, _ := c.Insert(geom.Point{x, 0})
		handle = append(handle, idx)
	}
	small := disc(20, 3.3+0.3, 0.25)
	if c.NumClusters() != 1 {
		t.Fatalf("setup: %d clusters, want one dumbbell", c.NumClusters())
	}
	old := c.find(c.labels[large[0]])
	cut := len(handle) - 3
	smallSide := len(small) + len(handle) - cut - 1
	raw := append([]cluster.ID(nil), c.labels...)

	before := c.queries
	if err := c.Delete(handle[cut]); err != nil {
		t.Fatal(err)
	}
	if spent := c.queries - before; spent > 3*smallSide {
		t.Errorf("split cost %d range queries, want ≤ 3 × the %d-object small side", spent, smallSide)
	}
	checkSurvivorsAgainstBatch(t, c)
	if c.NumClusters() != 2 {
		t.Fatalf("%d clusters after cutting the handle, want 2", c.NumClusters())
	}
	for _, i := range large {
		if c.labels[i] != raw[i] || c.find(c.labels[i]) != old {
			t.Fatalf("large-side object %d was relabelled: %d (cluster %d), was %d (cluster %d)",
				i, c.labels[i], c.find(c.labels[i]), raw[i], old)
		}
	}
	fresh := c.find(c.labels[small[0]])
	if fresh == old {
		t.Fatal("small side kept the old cluster id")
	}
	for _, i := range small {
		if c.find(c.labels[i]) != fresh {
			t.Fatalf("small-side object %d is in cluster %d, want %d", i, c.find(c.labels[i]), fresh)
		}
	}
}

// TestDeleteRepairsTwoClustersIndependently deletes a border object shared
// by two clusters whose nearest cores both hold exactly MinPts neighbours:
// one Delete then has lost cores in two clusters. The lower one is the sole
// link between two clumps (its cluster must split), the upper one sits on
// the rim of its cluster (which must survive under its old id).
func TestDeleteRepairsTwoClustersIndependently(t *testing.T) {
	const u = 0.25 // Eps is two lattice units
	c, _ := New(dbscan.Params{Eps: 2 * u, MinPts: 4})
	at := func(x, y float64) int {
		idx, err := c.Insert(geom.Point{x * u, y * u})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	var left, right, upper []int
	for _, d := range [][2]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		left = append(left, at(d[0], d[1]))
		right = append(right, at(5+d[0], d[1]))
		upper = append(upper, at(2+d[0], 5.5+d[1]))
	}
	link := at(3, 0)   // (1,0), (5,0), itself — core only with the victim
	rim := at(3, 4)    // (3,5.5), (2,5.5), itself — core only with the victim
	victim := at(3, 2) // exactly Eps from both; never core itself
	if c.IsCore(victim) || !c.IsCore(link) || !c.IsCore(rim) || c.NumClusters() != 2 {
		t.Fatalf("setup: victim core=%v link core=%v rim core=%v clusters=%d",
			c.IsCore(victim), c.IsCore(link), c.IsCore(rim), c.NumClusters())
	}
	upperID := c.find(c.labels[upper[0]])
	if err := c.Delete(victim); err != nil {
		t.Fatal(err)
	}
	checkSurvivorsAgainstBatch(t, c)
	if c.NumClusters() != 3 {
		t.Fatalf("%d clusters, want left, right and upper", c.NumClusters())
	}
	if c.find(c.labels[left[0]]) == c.find(c.labels[right[0]]) {
		t.Fatal("the lower cluster did not split")
	}
	if got := c.find(c.labels[upper[0]]); got != upperID {
		t.Fatalf("the intact upper cluster moved from id %d to %d", upperID, got)
	}
	if got := c.find(c.labels[rim]); got != upperID || c.IsCore(rim) {
		t.Fatalf("rim: cluster %d core=%v, want border of %d", got, c.IsCore(rim), upperID)
	}
	if c.Labels()[link] == cluster.Noise {
		t.Fatal("link is still within Eps of a core on either side, but became noise")
	}
}

// TestEpochWrapAround starts the stamp epoch three deletions short of its
// wrap, with every stamp holding a value the epoch will take again right
// after it: the wrap must clear the stamps, or the repair would take
// objects for already collected and leave clusters unrepaired.
func TestEpochWrapAround(t *testing.T) {
	w := newTurner(t, 2)
	w.c.epoch = math.MaxUint32 - 2
	for i := range w.c.stamp {
		w.c.stamp[i] = 1 + uint32(i%3)
	}
	repairs := 0
	for s := 0; repairs < 8; s++ {
		if s > 4*turnWindow {
			t.Fatalf("only %d repairs in %d evictions", repairs, s)
		}
		before := w.c.epoch
		w.evict(t)
		if w.c.epoch != before {
			repairs++
			checkSurvivorsAgainstBatch(t, w.c)
		}
		w.insert(t)
	}
	if w.c.epoch > 8 {
		t.Fatalf("epoch %d after 8 repairs from MaxUint32-2: it never wrapped", w.c.epoch)
	}
}

// TestWindowTurnAllocs gates the write path's allocations: in the steady
// state a window step reuses the clusterer's scratch and the cells' lists,
// and only a list that outgrows its capacity, a new cell or a union-find
// compaction allocates.
func TestWindowTurnAllocs(t *testing.T) {
	w := newTurner(t, 1)
	turn := func() {
		for i := 0; i < turnWindow; i++ {
			w.evict(t)
			w.insert(t)
		}
	}
	turn() // every scratch buffer reaches its steady size
	if perStep := testing.AllocsPerRun(4, turn) / turnWindow; perStep > 0.5 {
		t.Fatalf("%.2f allocations per evict+insert over four window turns, want <= 0.5", perStep)
	}
}

// BenchmarkWindowTurn is the layer's own number for the stream-churn
// workload: one op is one window step — evict the oldest object, insert the
// next — at window 512 on the three-disc stream, in two dimensions,
// embedded in eight, and cut to its first coordinate, where a cell's row of
// neighbours has three entries instead of nine.
func BenchmarkWindowTurn(b *testing.B) {
	for _, dim := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("d=%d", dim), func(b *testing.B) {
			period := turnStream(1)
			if dim != 2 {
				period = widen(period, dim, 2)
			}
			w := newTurnerOver(b, period)
			b.ReportAllocs()
			b.ResetTimer()
			start := w.c.queries
			for i := 0; i < b.N; i++ {
				w.evict(b)
				w.insert(b)
			}
			b.ReportMetric(float64(w.c.queries-start)/float64(b.N), "range-queries/op")
		})
	}
}
