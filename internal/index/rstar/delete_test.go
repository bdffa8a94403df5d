package rstar

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
)

func TestDeleteErrors(t *testing.T) {
	tr, _ := New([]geom.Point{{0, 0}})
	if err := tr.Delete(5); err == nil {
		t.Error("out-of-range delete accepted")
	}
	if err := tr.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(0); err == nil {
		t.Error("double delete accepted")
	}
	empty, _ := New(nil)
	if err := empty.Delete(0); err == nil {
		t.Error("delete from empty tree accepted")
	}
}

func TestDeleteToEmptyAndReuse(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 1}, {2, 2}}
	tr, _ := New(pts)
	for i := range pts {
		if err := tr.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.Range(geom.Point{1, 1}, 10); len(got) != 0 {
		t.Fatalf("Range after full delete = %v", got)
	}
	// The tree must accept inserts again.
	if err := tr.Insert(geom.Point{5, 5}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Range(geom.Point{5, 5}, 0); len(got) != 1 {
		t.Fatalf("Range after reuse = %v", got)
	}
}

// Property: after deleting arbitrary subsets, the tree answers range
// queries exactly like a linear scan over the survivors, and all
// structural invariants hold.
func TestDeleteRandomSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 5; trial++ {
		n := 200 + rng.Intn(800)
		pts := randomPoints(rng, n, 2)
		fanout := DefaultMaxEntries
		if trial%2 == 1 {
			fanout = 8
		}
		tr, err := NewWithFanout(pts, fanout)
		if err != nil {
			t.Fatal(err)
		}
		alive := make(map[int]bool, n)
		for i := 0; i < n; i++ {
			alive[i] = true
		}
		// Delete a random 60%.
		for _, i := range rng.Perm(n)[:n*6/10] {
			if err := tr.Delete(i); err != nil {
				t.Fatalf("delete %d: %v", i, err)
			}
			delete(alive, i)
		}
		if tr.Len() != len(alive) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(alive))
		}
		checkInvariants(t, tr)
		for q := 0; q < 30; q++ {
			query := randomPoints(rng, 1, 2)[0]
			eps := rng.Float64() * 5
			var want []int
			for i := range alive {
				if (geom.Euclidean{}).Distance(pts[i], query) <= eps {
					want = append(want, i)
				}
			}
			got := tr.Range(query, eps)
			sort.Ints(got)
			sort.Ints(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("range mismatch after deletions")
			}
		}
	}
}

// Interleaved inserts and deletes keep the structure sound.
func TestDeleteInsertInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	tr, _ := New(nil)
	alive := make(map[int]bool)
	for step := 0; step < 3000; step++ {
		if len(alive) > 0 && rng.Float64() < 0.4 {
			// Delete a random live point.
			var victim int
			k := rng.Intn(len(alive))
			for i := range alive {
				if k == 0 {
					victim = i
					break
				}
				k--
			}
			if err := tr.Delete(victim); err != nil {
				t.Fatal(err)
			}
			delete(alive, victim)
		} else {
			p := geom.Point{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
			if err := tr.Insert(p); err != nil {
				t.Fatal(err)
			}
			alive[tr.rows.Len()-1] = true
		}
		if step%500 == 499 {
			checkInvariants(t, tr)
			if tr.Len() != len(alive) {
				t.Fatalf("Len = %d, want %d", tr.Len(), len(alive))
			}
		}
	}
	checkInvariants(t, tr)
}

func TestDeleteDuplicatesByIndex(t *testing.T) {
	pts := make([]geom.Point, 50)
	for i := range pts {
		pts[i] = geom.Point{3, 3}
	}
	tr, _ := New(pts)
	// Delete every even index; the odd ones must survive.
	for i := 0; i < 50; i += 2 {
		if err := tr.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.Range(geom.Point{3, 3}, 0)
	if len(got) != 25 {
		t.Fatalf("survivors = %d, want 25", len(got))
	}
	for _, i := range got {
		if i%2 == 0 {
			t.Fatalf("deleted index %d still returned", i)
		}
	}
	checkInvariants(t, tr)
}

func TestReplaceAtErrors(t *testing.T) {
	tr, _ := New([]geom.Point{{0, 0}, {1, 1}})
	if err := tr.ReplaceAt(5, geom.Point{2, 2}); err == nil {
		t.Error("out-of-range replace accepted")
	}
	if err := tr.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.ReplaceAt(0, geom.Point{math.NaN(), 0}); err == nil {
		t.Error("non-finite replacement accepted")
	}
	if err := tr.ReplaceAt(0, geom.Point{1, 2, 3}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := tr.ReplaceAt(0, geom.Point{7, 7}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Range(geom.Point{7, 7}, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Range on replaced slot = %v", got)
	}
}

// Property: churning delete + ReplaceAt over a fixed slot population keeps
// the point table at its original size and answers range queries exactly
// like a linear scan over the current slot contents.
func TestReplaceAtChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const n = 300
	pts := randomPoints(rng, n, 2)
	cur := make([]geom.Point, n)
	copy(cur, pts)
	tr, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2000; step++ {
		i := rng.Intn(n)
		if err := tr.Delete(i); err != nil {
			t.Fatalf("step %d delete %d: %v", step, i, err)
		}
		p := geom.Point{rng.NormFloat64() * 4, rng.NormFloat64() * 4}
		if err := tr.ReplaceAt(i, p); err != nil {
			t.Fatalf("step %d replace %d: %v", step, i, err)
		}
		cur[i] = p
		if tr.rows.Len() != n {
			t.Fatalf("step %d: point table grew to %d slots", step, tr.rows.Len())
		}
		if step%400 == 399 {
			checkInvariants(t, tr)
			query := randomPoints(rng, 1, 2)[0]
			eps := rng.Float64() * 4
			var want []int
			for j, q := range cur {
				if (geom.Euclidean{}).Distance(q, query) <= eps {
					want = append(want, j)
				}
			}
			got := tr.Range(query, eps)
			sort.Ints(got)
			sort.Ints(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: range mismatch under replace churn", step)
			}
		}
	}
	checkInvariants(t, tr)
}

// After deleting every point, ReplaceAt restarts the tree like Insert does.
func TestReplaceAtFromEmpty(t *testing.T) {
	tr, _ := New([]geom.Point{{0, 0}, {1, 1}})
	for i := 0; i < 2; i++ {
		if err := tr.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.ReplaceAt(1, geom.Point{3, 3}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.Range(geom.Point{3, 3}, 0.1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Range after restart = %v", got)
	}
}

// One dimensionality per tree: the first point fixes the stride of the rows,
// and emptying the tree does not release it. The per-point table this tree
// once kept let an emptied tree restart with the next point's dimensionality
// and left mixed-dimension points behind Point(i).
func TestEmptiedTreeKeepsDimensionality(t *testing.T) {
	fresh, _ := New(nil)
	if err := fresh.Insert(geom.Point{}); err == nil {
		t.Error("zero-dimensional point accepted")
	}
	tr, _ := New([]geom.Point{{0, 0}})
	if err := tr.Delete(0); err != nil {
		t.Fatal(err)
	}
	const want = "rstar: point dimensionality 3, tree has 2"
	if err := tr.Insert(geom.Point{1, 2, 3}); err == nil || err.Error() != want {
		t.Errorf("Insert into the emptied tree: %v, want %q", err, want)
	}
	if err := tr.ReplaceAt(0, geom.Point{1, 2, 3}); err == nil || err.Error() != want {
		t.Errorf("ReplaceAt on the emptied tree: %v, want %q", err, want)
	}
	if err := tr.ReplaceAt(0, geom.Point{4, 5}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Range(geom.Point{4, 5}, 0); len(got) != 1 || got[0] != 0 || !tr.Point(0).Equal(geom.Point{4, 5}) {
		t.Fatalf("slot 0 after the rejected points: Range %v, Point %v", got, tr.Point(0))
	}
}
