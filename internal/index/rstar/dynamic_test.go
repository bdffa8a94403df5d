package rstar

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// churnScript drives one interleaved Insert / Delete / ReplaceAt sequence —
// 5 000 steps, seeded by dim and fan-out, half of all coordinates on a coarse
// lattice so that duplicates, degenerate rectangles and ties turn up in every
// choice the tree makes — and calls after once the tree has taken each step.
// Every step also holds one range query to the linear scan over the live
// slots.
func churnScript(t *testing.T, tr *Tree, dim int, after func(step int)) {
	t.Helper()
	const steps = 5000
	rng := rand.New(rand.NewSource(int64(100*dim + tr.maxEntries)))
	draw := func() geom.Point {
		p := make(geom.Point, dim)
		for d := range p {
			if p[d] = rng.Float64() * 20; rng.Intn(2) == 0 {
				p[d] = math.Floor(p[d])
			}
		}
		return p
	}
	var live, vacant []int
	slots := 0
	for s := 0; s < steps; s++ {
		var err error
		switch op := rng.Intn(10); {
		case op < 3 && len(live) > 8:
			k := rng.Intn(len(live))
			idx := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			vacant = append(vacant, idx)
			err = tr.Delete(idx)
		case op < 6 && len(vacant) > 0:
			idx := vacant[len(vacant)-1]
			vacant = vacant[:len(vacant)-1]
			live = append(live, idx)
			err = tr.ReplaceAt(idx, draw())
		default:
			live = append(live, slots)
			slots++
			err = tr.Insert(draw())
		}
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		after(s)
		q, eps := draw(), 1+3*rng.Float64()
		checkRangeAgainstScan(t, tr, live, q, eps)
	}
	checkInvariants(t, tr)
}

// checkRangeAgainstScan holds Range(q, eps) to the linear scan over the live
// slots.
func checkRangeAgainstScan(t *testing.T, tr *Tree, live []int, q geom.Point, eps float64) {
	t.Helper()
	var want []int
	for _, i := range live {
		if geom.SquaredEuclidean(q, tr.Point(i)) <= eps*eps {
			want = append(want, i)
		}
	}
	got := tr.Range(q, eps)
	sort.Ints(got)
	sort.Ints(want)
	if !slices.Equal(got, want) {
		t.Fatalf("range %v, linear scan %v", got, want)
	}
}

// windowStream is incdbscan's three-disc window-turn stream (repair_test.go
// there, seed 1): the points the stream-churn workload's shape puts through
// the tree.
func windowStream() []geom.Point {
	const window, radius = 512, 1.4
	const pitch = 2*radius + 1.1
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 2*window)
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
			a, r := 2*math.Pi*rng.Float64(), radius*math.Sqrt(rng.Float64())
			pts[i] = geom.Point{float64(k%3)*pitch + r*math.Cos(a), r * math.Sin(a)}
		case gap >= 0:
			from := float64(gap)*pitch + radius - 0.3
			pts[i] = geom.Point{from + 1.7*float64(mover)/9 + (rng.Float64()-0.5)*0.04, (rng.Float64() - 0.5) * 0.1}
		default:
			pts[i] = geom.Point{-10 + 25*rng.Float64(), 4 + 20*rng.Float64()}
		}
	}
	return pts
}

// windowScript is what incdbscan asks of its tree over four turns of a
// 512-object FIFO window: fill it, then Delete the oldest slot and ReplaceAt
// it with the next point of the stream.
func windowScript(t *testing.T, tr *Tree, after func(step int)) {
	t.Helper()
	const window = 512
	stream := windowStream()
	for s := 0; s < 5*window; s++ {
		p := stream[s%len(stream)]
		var err error
		if s < window {
			err = tr.Insert(p)
		} else if err = tr.Delete(s % window); err == nil {
			err = tr.ReplaceAt(s%window, p)
		}
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		after(s)
	}
	checkInvariants(t, tr)
}

// TestDynamicLayoutIdentity pins the dynamic tree the way TestBulkLayoutIdentity
// pins the bulk-loaded one: a rolling SHA-256 over LayoutDigest after every
// step of the four churn scripts and of the window script. The digests were
// recorded at commit a7b806a, from the insert path that summed OverlapArea
// over every pair of a node's entries and kept one rectangle per point; a
// tree that passes makes every choice — subtree, eviction order, split axis
// and index, ties included — as that one did.
func TestDynamicLayoutIdentity(t *testing.T) {
	recorded := map[string]string{
		"dim=2/fanout=4":  "c9d37c8d50e64dbf2b896075abccca90e5664bd787e5061c8ea25e14eafcb558",
		"dim=2/fanout=32": "17b312b027ec872d659ca14c7f6580d439441887343ce19c54e585716fa26df7",
		"dim=8/fanout=4":  "714adc8cee8ca426d77dbf7d0b6c2b5cf43e6892dec05f5cbc66034c44f0bd59",
		"dim=8/fanout=32": "a1fac6903ea26469881a1c254ecf7edd3db8dce22377494ab50474f836359ed6",
		"window":          "2ad55995d2c76a8b553d128780b6250bdff792d6e5c17dc2f13cf5a79bb7c2a8",
	}
	for name, script := range dynamicScripts() {
		tr, err := NewWithFanout(nil, script.fanout)
		if err != nil {
			t.Fatal(err)
		}
		var roll [sha256.Size]byte
		script.run(t, tr, func(int) {
			digest, _ := LayoutDigest(tr)
			roll = sha256.Sum256(append(roll[:], digest...))
		})
		if got := hex.EncodeToString(roll[:]); got != recorded[name] {
			t.Errorf("%s: rolling layout digest %s, recorded %s", name, got, recorded[name])
		}
	}
}

// script is one replayable op sequence for a tree of the given fan-out.
type script struct {
	fanout int
	run    func(t *testing.T, tr *Tree, after func(step int))
}

// dynamicScripts names the four churn scripts and the window script.
func dynamicScripts() map[string]script {
	scripts := map[string]script{"window": {DefaultMaxEntries, windowScript}}
	for _, dim := range []int{2, 8} {
		for _, fanout := range []int{4, 32} {
			scripts[fmt.Sprintf("dim=%d/fanout=%d", dim, fanout)] = script{fanout, func(t *testing.T, tr *Tree, after func(int)) {
				churnScript(t, tr, dim, after)
			}}
		}
	}
	return scripts
}

// overlapArea is geom.Rect.OverlapArea as it stood up to commit a7b806a, on
// math.Max and math.Min.
func overlapArea(r, s geom.Rect) float64 {
	a := 1.0
	for i := range r.Min {
		lo := math.Max(r.Min[i], s.Min[i])
		hi := math.Min(r.Max[i], s.Max[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// allPairsChoice is the leaf-level ChooseSubtree rule as Beckmann et al. state
// it and as the tree evaluated it up to commit a7b806a, verbatim: overlap
// growth summed over every pair of entries. It is the oracle for chooseLeaf,
// which must return the same index from a fraction of the sums.
func allPairsChoice(es []entry, r geom.Rect) int {
	best, bestOverlap, bestEnl, bestArea := -1, math.Inf(1), math.Inf(1), math.Inf(1)
	for i, e := range es {
		ext := e.rect.Extend(r)
		var dOverlap float64
		for j, other := range es {
			if j == i {
				continue
			}
			dOverlap += overlapArea(ext, other.rect) - overlapArea(e.rect, other.rect)
		}
		enl := ext.Area() - e.rect.Area()
		area := e.rect.Area()
		if dOverlap < bestOverlap ||
			(dOverlap == bestOverlap && enl < bestEnl) ||
			(dOverlap == bestOverlap && enl == bestEnl && area < bestArea) {
			best, bestOverlap, bestEnl, bestArea = i, dOverlap, enl, area
		}
	}
	return best
}

// holdToAllPairs makes tr check every leaf-level ChooseSubtree decision —
// the insert's own, and those of forced reinsertions and of orphans — against
// allPairsChoice, and returns the count of decisions checked.
func holdToAllPairs(t *testing.T, tr *Tree) *int {
	calls := new(int)
	tr.leafChoice = func(es []entry, r geom.Rect, got int) {
		*calls++
		if want := allPairsChoice(es, r); got != want {
			t.Fatalf("leaf-level choice %d among %d entries for %v: chooseLeaf %d, all-pairs rule %d", *calls, len(es), r, got, want)
		}
	}
	return calls
}

// TestInsertPathDifferential replays the scripts with the all-pairs rule
// watching: what a layout digest can only report as "some tree differs", this
// localises to the first choice that differs.
func TestInsertPathDifferential(t *testing.T) {
	for name, script := range dynamicScripts() {
		t.Run(name, func(t *testing.T) {
			tr, err := NewWithFanout(nil, script.fanout)
			if err != nil {
				t.Fatal(err)
			}
			calls := holdToAllPairs(t, tr)
			script.run(t, tr, func(int) {})
			if *calls < 1000 {
				t.Fatalf("only %d leaf-level choices were checked", *calls)
			}
		})
	}
}

// treeOpsSeed encodes a run of churnScript's op mix over a 16-cell lattice
// as FuzzTreeOps input.
func treeOpsSeed(dim, fanout, steps int) []byte {
	rng := rand.New(rand.NewSource(int64(100*dim + fanout)))
	in := []byte{byte(dim-2) | byte(fanout/32)<<1}
	for s := 0; s < steps; s++ {
		in = append(in, byte(rng.Intn(10)), byte(rng.Intn(256)), byte(rng.Intn(64)))
		for d := 0; d < dim; d++ {
			in = append(in, byte(rng.Intn(16)))
		}
	}
	return in
}

// FuzzTreeOps is the stateful fuzzer of the dynamic tree. The first byte
// picks 2 or 3 dimensions and fan-out 4 or 32; every further group is one op
// — kind, victim, query radius, coordinates on a 16-cell lattice — with
// churnScript's mix of Insert, Delete and ReplaceAt. After every op the
// structural invariants hold, Range agrees with the linear scan over the live
// slots, and every leaf-level choice made on the way was the all-pairs rule's.
func FuzzTreeOps(f *testing.F) {
	for _, dim := range []int{2, 3} {
		for _, fanout := range []int{4, 32} {
			f.Add(treeOpsSeed(dim, fanout, 300))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		dim, fanout := 2+int(in[0]&1), 4
		if in[0]&2 != 0 {
			fanout = 32
		}
		tr, err := NewWithFanout(nil, fanout)
		if err != nil {
			t.Fatal(err)
		}
		holdToAllPairs(t, tr)
		var live, vacant []int
		slots := 0
		for in = in[1:]; len(in) >= 3+dim && slots < 400; in = in[3+dim:] {
			p := make(geom.Point, dim)
			for d := range p {
				p[d] = float64(in[3+d] % 16)
			}
			switch kind := in[0] % 10; {
			case kind < 3 && len(live) > 0:
				k := int(in[1]) % len(live)
				vacant = append(vacant, live[k])
				err = tr.Delete(live[k])
				live = slices.Delete(live, k, k+1)
			case kind < 6 && len(vacant) > 0:
				idx := vacant[len(vacant)-1]
				vacant = vacant[:len(vacant)-1]
				live = append(live, idx)
				err = tr.ReplaceAt(idx, p)
			default:
				live = append(live, slots)
				slots++
				err = tr.Insert(p)
			}
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, tr)
			checkRangeAgainstScan(t, tr, live, p, float64(in[2]%64)/4)
		}
	})
}
