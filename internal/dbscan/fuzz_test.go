package dbscan

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/index/rstar"
)

// FuzzRunAgreesWithReference holds Run to referenceRun, the package
// comment's rule computed pair by pair, on points derived from the fuzzed
// bytes: 1 to 4 dimensions, every coordinate on a lattice of Eps/2 — so
// duplicates and neighbours at exactly Eps abound — and MinPts 1 to 8. Run
// goes over the R*-tree at fan-outs 4 and 32, built for 0.5, 1 and 3 times
// the Eps it is run at, at one worker and at three, and over the linear scan,
// which has no leaves; every Result must be the reference's, field for field.
// So must FromCores' over every build, fed the reference's core flags and a
// relabelled labelling (relabelled), but for RangeQueries: borders + |Scor|.
//
// Input layout: dimension, MinPts, Eps choice, then the coordinates, one
// byte each (its low four bits are the lattice step).
func FuzzRunAgreesWithReference(f *testing.F) {
	lattice := []byte{1, 2, 0} // 2-d, MinPts 3, Eps 1: a 12 × 12 grid, neighbours at exactly Eps
	for x := 0; x < 12; x++ {
		for y := 0; y < 12; y++ {
			lattice = append(lattice, byte(x), byte(y))
		}
	}
	dup := []byte{1, 3, 1} // 40 locations, six copies each
	for i := 0; i < 40; i++ {
		for c := 0; c < 6; c++ {
			dup = append(dup, byte(i*5), byte(i*11))
		}
	}
	line := []byte{0, 1, 2} // 1-d, MinPts 2
	for i := 0; i < 150; i++ {
		line = append(line, byte(i*i+3*i))
	}
	cube := []byte{3, 7, 0} // 4-d, MinPts 8
	for i := 0; i < 4*120; i++ {
		cube = append(cube, byte(i*7%5+i%3))
	}
	single := []byte{2, 0, 1, 3, 3, 3} // one 3-d point, MinPts 1
	// 2-d, MinPts 4, Eps 1: two squares of core objects and, exactly Eps
	// from one core of each, a border object in reach of both; one noise.
	bridge := []byte{1, 3, 0, 2, 2, 2, 3, 3, 2, 3, 3, 7, 2, 8, 2, 7, 3, 8, 3, 5, 2, 15, 15}
	for _, seed := range [][]byte{lattice, dup, line, cube, single, bridge} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		dim := 1 + int(in[0])%4
		params := Params{MinPts: 1 + int(in[1])%8, Eps: []float64{1, 0.75, 0.3}[int(in[2])%3]}
		in = in[3:]
		n := min(len(in)/dim, 200)
		if n == 0 {
			return
		}
		st := geom.NewStore(dim, n)
		for i := 0; i < n; i++ {
			row := st.AppendZero()
			for d := range row {
				row[d] = float64(in[i*dim+d]%16) * params.Eps / 2
			}
		}
		type built struct {
			name string
			idx  index.Index
		}
		linear, err := index.BuildStore(index.KindLinear, st, geom.Euclidean{}, params.Eps)
		if err != nil {
			t.Fatal(err)
		}
		indexes := []built{{"linear", linear}}
		for _, fanout := range []int{4, rstar.DefaultMaxEntries} {
			for _, hint := range []float64{0.5, 1, 3} {
				tree, err := rstar.NewBulkStore(st, fanout, hint*params.Eps)
				if err != nil {
					t.Fatal(err)
				}
				indexes = append(indexes, built{fmt.Sprintf("rstar/M=%d/hint=%gx", fanout, hint), tree})
			}
		}
		want := referenceRun(linear, params)
		fromCores, labels := *want, relabelled(st, want)
		fromCores.RangeQueries = len(want.SpecificEps)
		for i := range want.Labels {
			if want.IsBorder(i) {
				fromCores.RangeQueries++
			}
		}
		for _, b := range indexes {
			got, err := FromCores(b.idx, params, slices.Clone(want.Core), labels)
			if err != nil {
				t.Fatalf("dim %d n %d %+v, %s: FromCores: %v", dim, n, params, b.name, err)
			}
			if !reflect.DeepEqual(got, &fromCores) {
				t.Fatalf("dim %d n %d %+v, %s: FromCores: %s", dim, n, params, b.name, describeDifference(got, &fromCores))
			}
			for _, workers := range []int{1, 3} {
				got, err := Run(b.idx, params, Options{CollectSpecificCores: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("dim %d n %d %+v, %s, workers=%d: %s", dim, n, params, b.name, workers, describeDifference(got, want))
				}
			}
		}
	})
}

// relabelled is another DBSCAN labelling of res's clustering over st: the
// cluster ids reversed, and every border object moved to the cluster of its
// highest-id core neighbour, found pair by pair.
func relabelled(st *geom.Store, res *Result) cluster.Labeling {
	k, eps2 := cluster.ID(res.NumClusters()), res.Params.Eps*res.Params.Eps
	out := make(cluster.Labeling, len(res.Labels))
	for i, id := range res.Labels {
		out[i] = id
		if res.Core[i] {
			out[i] = k - 1 - id
		} else if id >= 0 {
			for q := len(res.Labels) - 1; q >= 0; q-- {
				if res.Core[q] && st.DistanceSq(i, q) <= eps2 {
					out[i] = k - 1 - res.Labels[q]
					break
				}
			}
		}
	}
	return out
}
