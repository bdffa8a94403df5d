package dbscan_test

import (
	"math/rand"
	"reflect"
	"sync/atomic"
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

// plainCounter counts the queries that reach a store-backed index and the ids
// they return. It forwards Index, IDRangeAppender and StoreBacked and nothing
// else, so whatever it wraps, it offers Run no leaves.
type plainCounter struct {
	index.Index
	queries, ids atomic.Int64
}

func (c *plainCounter) RangeAppendID(i int, eps float64, buf []int) []int {
	buf = c.Index.(index.IDRangeAppender).RangeAppendID(i, eps, buf)
	c.queries.Add(1)
	c.ids.Add(int64(len(buf)))
	return buf
}

func (c *plainCounter) Store() *geom.Store { return index.StoreOf(c.Index) }

// leafCounter is plainCounter with the wrapped index's leaves on offer; the
// unseen-aware queries and what they return are counted apart.
type leafCounter struct {
	plainCounter
	unseenQueries, unseenIDs atomic.Int64
}

func (c *leafCounter) Leaves() ([]int32, int) { return index.LeavesOf(c.Index) }

func (c *leafCounter) RangeAppendIDUnseen(i int, eps float64, enough int, unseen []int32, buf []int) []int {
	buf = c.Index.(index.UnseenRangeAppender).RangeAppendIDUnseen(i, eps, enough, unseen, buf)
	c.unseenQueries.Add(1)
	c.unseenIDs.Add(int64(len(buf)))
	return buf
}

// TestExpansionLeavesOutTheSeen pins the work, not the time: on the 16 000-row
// site the benchmark clusters, the region queries of the expansion hand back
// at most 35% of the neighbourhoods' Σ|N_Eps(p)| when the R*-tree's leaves are
// on offer (17% when this was written) — one query per object all the same,
// the condensation's queries in full, and the Result the one a linear scan,
// which has no leaves, produces. With the same tree behind a wrapper that
// offers no leaves the expansion is handed exactly Σ|N_Eps(p)|.
func TestExpansionLeavesOutTheSeen(t *testing.T) {
	st := blobSite(1)
	params := dbscan.Params{Eps: 1.2, MinPts: 4}
	tree, err := index.BuildStore(index.KindRStar, st, geom.Euclidean{}, params.Eps)
	if err != nil {
		t.Fatal(err)
	}
	linear, err := index.BuildStore(index.KindLinear, st, geom.Euclidean{}, params.Eps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dbscan.Run(linear, params, dbscan.Options{CollectSpecificCores: true})
	if err != nil {
		t.Fatal(err)
	}
	n, total := st.Len(), 0
	var buf []int
	for p := 0; p < n; p++ {
		buf = index.RangeIntoID(tree, p, params.Eps, buf)
		total += len(buf)
	}

	for _, workers := range []int{1, 2} {
		withLeaves := &leafCounter{plainCounter: plainCounter{Index: tree}}
		got, err := dbscan.Run(withLeaves, params, dbscan.Options{CollectSpecificCores: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: the Result depends on what the region queries left out", workers)
		}
		if q := int(withLeaves.unseenQueries.Load()); q != n {
			t.Fatalf("workers=%d: %d expansion queries for %d objects", workers, q, n)
		}
		if q := int(withLeaves.queries.Load()); q != len(got.SpecificEps) || n+q != got.RangeQueries {
			t.Fatalf("workers=%d: %d full queries for %d specific core points, RangeQueries %d", workers, q, len(got.SpecificEps), got.RangeQueries)
		}
		handed := int(withLeaves.unseenIDs.Load())
		t.Logf("workers=%d: the expansion was handed %d of %d neighbour ids (%.1f%%)", workers, handed, total, 100*float64(handed)/float64(total))
		if workers == 1 && handed*100 > total*35 {
			t.Fatalf("the expansion was handed %d of %d neighbour ids, more than 35%%", handed, total)
		}
	}

	noLeaves := &plainCounter{Index: tree}
	got, err := dbscan.Run(noLeaves, params, dbscan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.Core, want.Core) {
		t.Fatal("labels without leaves differ")
	}
	if q, ids := int(noLeaves.queries.Load()), int(noLeaves.ids.Load()); q != n || ids != total {
		t.Fatalf("without leaves: %d queries handed back %d ids, want %d and every neighbourhood in full, %d", q, ids, n, total)
	}
}
