package dbscan_test

import (
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// blobSite is site 0 of the benchmark's round-bulk workload (bench/round.go:
// ten σ-2 blobs at fixed centres plus 5% uniform noise over 32 000 rows,
// dealt round-robin to two sites), clustered at Eps 1.2, MinPts 4.
func blobSite(seed int64) *geom.Store {
	centres := []geom.Point{
		{15, 15}, {50, 12}, {85, 18}, {30, 40}, {68, 42},
		{12, 65}, {48, 70}, {86, 66}, {28, 90}, {70, 92},
	}
	const n = 32000
	rng := rand.New(rand.NewSource(seed))
	all := geom.NewStore(2, n)
	clustered := n * 95 / 100
	for i, c := range centres {
		k := clustered / len(centres)
		if i < clustered%len(centres) {
			k++
		}
		data.AppendBlob(all, rng, c, 2, k)
	}
	data.AppendUniform(all, rng, geom.NewRect(geom.Point{0, 0}, geom.Point{100, 100}), n-clustered)
	site := geom.NewStore(2, n/2)
	for i := 0; i < n; i += 2 {
		site.Append(all.Point(i))
	}
	return site
}

// TestRunAllocs gates the schedule's allocations: its scratch is sized by n
// and allocated once per run, so clustering 16 000 blob rows allocates no
// more objects than clustering 4 000 — nothing per leaf, nothing per object.
// Specific core collection is off: its maps grow with the clusters.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	params := dbscan.Params{Eps: 1.2, MinPts: 4}
	allocs := make(map[int]float64)
	for _, n := range []int{4000, 16000} {
		st := blobSite(1)
		rows := geom.NewStore(2, n)
		for i := 0; i < n; i++ {
			rows.Append(st.Point(i))
		}
		idx, err := index.BuildStore(index.KindRStar, rows, geom.Euclidean{}, params.Eps)
		if err != nil {
			t.Fatal(err)
		}
		allocs[n] = testing.AllocsPerRun(5, func() {
			if _, err := dbscan.Run(idx, params, dbscan.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d rows: %.0f allocations per run", n, allocs[n])
	}
	if allocs[16000] > allocs[4000] {
		t.Fatalf("%.0f allocations over 16 000 rows, %.0f over 4 000: the schedule allocates per leaf or per object", allocs[16000], allocs[4000])
	}
}

// TestNeighboursZeroAlloc is the hot-loop regression gate of the by-id
// neighbourhood OPTICS and pdbscan walk once per object: once the result
// buffer has grown to its steady-state capacity, a neighbourhood over any
// index kind allocates nothing.
func TestNeighboursZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	st := blobSite(1)
	const eps = 1.2
	for _, kind := range index.Kinds() {
		idx, err := index.BuildStore(kind, st, geom.Euclidean{}, eps)
		if err != nil {
			t.Fatalf("%s: BuildStore: %v", kind, err)
		}
		t.Run(string(kind), func(t *testing.T) {
			nb := dbscan.Neighbours(idx, eps)
			buf := make([]int, 0, st.Len()) // steady-state capacity up front
			p, returned := 0, 0
			allocs := testing.AllocsPerRun(100, func() {
				buf = nb.Of(p%st.Len(), buf)
				returned += len(buf)
				p += 131
			})
			if allocs != 0 {
				t.Errorf("%.1f allocs per neighbourhood, want 0", allocs)
			}
			if returned == 0 {
				t.Error("the neighbourhoods were empty: the test does not test")
			}
		})
	}
}
