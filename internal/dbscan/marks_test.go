package dbscan_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// queryLog records the ids a sequential run queries, in order. It forwards
// the three interfaces dbscan.Run sees through (Index, IDRangeAppender,
// StoreBacked), so the wrapped index still presents its store.
type queryLog struct {
	index.Index
	ids []int
}

func (l *queryLog) RangeAppendID(i int, eps float64, buf []int) []int {
	l.ids = append(l.ids, i)
	return index.RangeIntoID(l.Index, i, eps, buf)
}

func (l *queryLog) Store() *geom.Store { return index.StoreOf(l.Index) }

// pairwiseCondense is the Definition 6/7 bookkeeping as it was before the
// coverage marks, kept as the reference: a core point, taken in processing
// order, joins Scor of its cluster unless one of the specific cores selected
// before it for that cluster lies within Eps — decided by scanning them pair
// by pair — and ε_s is Eps plus the largest distance from s to a core point
// within Eps, found by a scan over every object. Distances are the store
// kernel's in squared space on a store-backed index and the metric's
// otherwise, exactly the two arms the deleted coveredBySpecificCore had.
func pairwiseCondense(idx index.Index, res *dbscan.Result, order []int) (map[cluster.ID][]int, map[int]float64) {
	st, metric, eps := index.StoreOf(idx), idx.Metric(), res.Params.Eps
	// dist reports the comparable distance of objects a and b and whether b
	// lies in N_Eps(a).
	dist := func(a, b int) (float64, bool) {
		if st != nil {
			d2 := st.DistanceSq(a, b)
			return d2, d2 <= eps*eps
		}
		d := metric.Distance(idx.Point(a), idx.Point(b))
		return d, d <= eps
	}
	scor := make(map[cluster.ID][]int)
	for _, q := range order {
		if !res.Core[q] {
			continue
		}
		id := res.Labels[q]
		covered := false
		for _, s := range scor[id] {
			if _, in := dist(s, q); in {
				covered = true
				break
			}
		}
		if !covered {
			scor[id] = append(scor[id], q)
		}
	}
	specificEps := make(map[int]float64)
	for _, ss := range scor {
		for _, s := range ss {
			var max float64
			for c := range res.Core {
				if c == s || !res.Core[c] {
					continue
				}
				if d, in := dist(s, c); in && d > max {
					max = d
				}
			}
			if st != nil {
				max = math.Sqrt(max)
			}
			specificEps[s] = eps + max
		}
	}
	return scor, specificEps
}

// checkMarksAgainstPairwise clusters idx with the sequential expansion and
// with RunParallel at 1, 2 and 4 workers and holds Scor (order included) and
// SpecificEps of each to pairwiseCondense over the same processing order:
// the logged query order for the expansion, ascending object id for the
// parallel body.
func checkMarksAgainstPairwise(t *testing.T, name string, idx index.Index, params dbscan.Params) {
	t.Helper()
	opts := dbscan.Options{CollectSpecificCores: true}
	check := func(row string, res *dbscan.Result, order []int) {
		t.Helper()
		if len(res.Scor) == 0 {
			t.Fatalf("%s/%s: no specific cores selected; the comparison would be vacuous", name, row)
		}
		wantScor, wantEps := pairwiseCondense(idx, res, order)
		if !reflect.DeepEqual(res.Scor, wantScor) {
			t.Errorf("%s/%s: Scor differs from the pairwise scan's", name, row)
		}
		if !reflect.DeepEqual(res.SpecificEps, wantEps) {
			t.Errorf("%s/%s: SpecificEps differs from the pairwise scan's", name, row)
		}
	}

	log := &queryLog{Index: idx}
	res, err := dbscan.Run(log, params, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// The expansion's queries come first, one per object; the Definition 7
	// queries, one per specific core, follow.
	check("sequential", res, log.ids[:len(log.ids)-len(res.SpecificEps)])

	ascending := make([]int, idx.Len())
	for i := range ascending {
		ascending[i] = i
	}
	for _, workers := range []int{1, 2, 4} {
		o := opts
		o.Workers = workers
		res, err := dbscan.RunParallel(idx, params, o)
		if err != nil {
			t.Fatalf("%s/workers=%d: %v", name, workers, err)
		}
		check(fmt.Sprintf("parallel/workers=%d", workers), res, ascending)
	}
}

// TestScorMarksMatchPairwiseScan pins the coverage marks to the pairwise
// scan they replaced, on data sets A, B and C under every index kind, and
// under a metric with no store behind it (M-tree + Manhattan).
func TestScorMarksMatchPairwiseScan(t *testing.T) {
	for _, ds := range data.ABC(1) {
		for _, kind := range index.Kinds() {
			if kind == index.KindLinear && ds.Name == "A" && testing.Short() {
				continue // 8 700² distances per run
			}
			idx, err := index.Build(kind, ds.Points, geom.Euclidean{}, ds.Params.Eps)
			if err != nil {
				t.Fatalf("%s/%s: %v", ds.Name, kind, err)
			}
			checkMarksAgainstPairwise(t, fmt.Sprintf("%s/%s", ds.Name, kind), idx, ds.Params)
		}
		idx, err := index.Build(index.KindMTree, ds.Points, geom.Manhattan{}, ds.Params.Eps)
		if err != nil {
			t.Fatalf("%s/mtree+manhattan: %v", ds.Name, err)
		}
		if index.StoreOf(idx) != nil {
			t.Fatalf("%s: a Manhattan index is store-backed; the metric arm is not under test", ds.Name)
		}
		checkMarksAgainstPairwise(t, ds.Name+"/mtree+manhattan", idx, ds.Params)
	}
}
