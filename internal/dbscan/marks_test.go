package dbscan_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// checkMarksAgainstPairwise clusters idx at 1, 2 and 4 workers and holds each
// result to want, a dbscan.ReferenceRun over the same points:
// its Definition 6 is the pairwise scan the coverage marks replaced, its
// Definition 7 a scan over every neighbor.
func checkMarksAgainstPairwise(t *testing.T, name string, idx index.Index, params dbscan.Params, want *dbscan.Result) {
	t.Helper()
	if len(want.Scor) == 0 {
		t.Fatalf("%s: no specific cores selected; the comparison would be vacuous", name)
	}
	for _, workers := range []int{1, 2, 4} {
		res, err := dbscan.Run(idx, params, dbscan.Options{CollectSpecificCores: true, Workers: workers})
		if err != nil {
			t.Fatalf("%s/workers=%d: %v", name, workers, err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("%s/workers=%d: result (Scor, SpecificEps included) differs from the pairwise scan's", name, workers)
		}
	}
}

// TestScorMarksMatchPairwiseScan pins the coverage marks to the pairwise
// scan they replaced, on data sets A, B and C under every index kind. The
// kinds answer from equal stores, so one reference serves them all.
func TestScorMarksMatchPairwiseScan(t *testing.T) {
	for _, ds := range data.ABC(1) {
		var want *dbscan.Result
		for _, kind := range index.Kinds() {
			t.Run(fmt.Sprintf("%s/%s", ds.Name, kind), func(t *testing.T) {
				if kind == index.KindLinear && ds.Name == "A" && testing.Short() {
					t.Skip("8 700² distances per run")
				}
				idx, err := index.Build(kind, ds.Points, geom.Euclidean{}, ds.Params.Eps)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = dbscan.ReferenceRun(idx, ds.Params)
				}
				checkMarksAgainstPairwise(t, fmt.Sprintf("%s/%s", ds.Name, kind), idx, ds.Params, want)
			})
		}
	}
}
