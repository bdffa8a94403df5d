// Benchmarks regenerating the measurements behind every table and figure of
// the DBDC paper's evaluation (Section 9), plus ablation benches for the
// design choices DESIGN.md calls out. Absolute numbers differ from the
// paper's 2004 hardware; the shapes (who wins, by what rough factor, where
// crossovers fall) are the reproduction target. cmd/experiments prints the
// full tables; these benches make the underlying costs measurable with
// `go test -bench=. -benchmem`.
package dbdc_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	lib "github.com/dbdc-go/dbdc"
	"github.com/dbdc-go/dbdc/internal/data"
	core "github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/distkmeans"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/index/rstar"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/pdbscan"
	"github.com/dbdc-go/dbdc/internal/quality"
)

// sitesOf splits a data set over k equally sized sites.
func sitesOf(ds lib.Dataset, k int) []lib.Site {
	sites := make([]lib.Site, k)
	per := len(ds.Points) / k
	for s := 0; s < k; s++ {
		end := (s + 1) * per
		if s == k-1 {
			end = len(ds.Points)
		}
		sites[s] = lib.Site{ID: fmt.Sprintf("site-%02d", s), Points: ds.Points[s*per : end]}
	}
	return sites
}

func dbdcConfig(ds lib.Dataset, kind lib.ModelKind) lib.Config {
	return lib.Config{
		Local:      ds.Params,
		Model:      kind,
		EpsGlobal:  2 * ds.Params.Eps,
		Sequential: true,
	}
}

// benchCentral measures the reference central DBSCAN run.
func benchCentral(b *testing.B, ds lib.Dataset) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lib.Cluster(ds.Points, ds.Params); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDBDC measures the full distributed pipeline.
func benchDBDC(b *testing.B, ds lib.Dataset, k int, kind lib.ModelKind) {
	sites := sitesOf(ds, k)
	cfg := dbdcConfig(ds, kind)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := lib.Run(sites, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DistributedDuration().Seconds()*1000, "distms/op")
	}
}

// BenchmarkFig7a — runtime vs cardinality (large): central DBSCAN versus
// DBDC with both local models on data set A at 4 sites. Paper shape: DBDC
// far ahead at scale, REP_Scor cheaper than REP_kMeans.
func BenchmarkFig7a(b *testing.B) {
	for _, n := range []int{10_000, 50_000, 100_000} {
		ds := lib.DatasetA(n, 1)
		b.Run(fmt.Sprintf("central/n=%d", n), func(b *testing.B) { benchCentral(b, ds) })
		b.Run(fmt.Sprintf("dbdc-scor/n=%d", n), func(b *testing.B) { benchDBDC(b, ds, 4, lib.RepScor) })
		b.Run(fmt.Sprintf("dbdc-kmeans/n=%d", n), func(b *testing.B) { benchDBDC(b, ds, 4, lib.RepKMeans) })
	}
}

// BenchmarkFig7b — runtime vs cardinality (small): the overhead region
// where DBDC is slightly slower than central clustering.
func BenchmarkFig7b(b *testing.B) {
	for _, n := range []int{500, 2_000, 8_700} {
		ds := lib.DatasetA(n, 1)
		b.Run(fmt.Sprintf("central/n=%d", n), func(b *testing.B) { benchCentral(b, ds) })
		b.Run(fmt.Sprintf("dbdc-scor/n=%d", n), func(b *testing.B) { benchDBDC(b, ds, 4, lib.RepScor) })
		b.Run(fmt.Sprintf("dbdc-kmeans/n=%d", n), func(b *testing.B) { benchDBDC(b, ds, 4, lib.RepKMeans) })
	}
}

// BenchmarkFig8 — runtime vs number of sites on the 203,000-point data set;
// the speed-up over the central run (also measured here) lies between O(s)
// and O(s²).
func BenchmarkFig8(b *testing.B) {
	ds := lib.DatasetA(203_000, 1)
	b.Run("central", func(b *testing.B) { benchCentral(b, ds) })
	for _, k := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("dbdc-scor/sites=%d", k), func(b *testing.B) { benchDBDC(b, ds, k, lib.RepScor) })
	}
}

// benchQuality runs DBDC and evaluates both quality functions against the
// central reference; the qualities are reported as benchmark metrics so the
// figure's series appear in the bench output.
func benchQuality(b *testing.B, ds lib.Dataset, k int, kind lib.ModelKind, epsFactor float64) {
	central, err := lib.Cluster(ds.Points, ds.Params)
	if err != nil {
		b.Fatal(err)
	}
	sites := sitesOf(ds, k)
	cfg := dbdcConfig(ds, kind)
	cfg.EpsGlobal = epsFactor * ds.Params.Eps
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := lib.Run(sites, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Assemble the distributed labeling in data set order (contiguous
		// split, so concatenation in site order).
		distributed := make(lib.Labeling, 0, len(ds.Points))
		for s := range sites {
			distributed = append(distributed, res.Sites[sites[s].ID].Labels...)
		}
		pi, err := quality.QDBDCPI(distributed, central.Labels, ds.Params.MinPts)
		if err != nil {
			b.Fatal(err)
		}
		pii, err := quality.QDBDCPII(distributed, central.Labels)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pi*100, "P1pct")
		b.ReportMetric(pii*100, "P2pct")
	}
}

// BenchmarkFig9 — quality vs Eps_global factor for both local models (9a:
// P^I flat; 9b: P^II peaks near factor 2).
func BenchmarkFig9(b *testing.B) {
	ds := lib.DatasetA(data.DatasetASize, 1)
	for _, factor := range []float64{1.0, 2.0, 4.0} {
		b.Run(fmt.Sprintf("scor/factor=%.1f", factor), func(b *testing.B) {
			benchQuality(b, ds, 4, lib.RepScor, factor)
		})
		b.Run(fmt.Sprintf("kmeans/factor=%.1f", factor), func(b *testing.B) {
			benchQuality(b, ds, 4, lib.RepKMeans, factor)
		})
	}
}

// BenchmarkFig10 — quality vs number of client sites at the default
// Eps_global = 2·Eps_local.
func BenchmarkFig10(b *testing.B) {
	ds := lib.DatasetA(data.DatasetASize, 1)
	for _, k := range []int{2, 8, 20} {
		b.Run(fmt.Sprintf("scor/sites=%d", k), func(b *testing.B) {
			benchQuality(b, ds, k, lib.RepScor, 2)
		})
		b.Run(fmt.Sprintf("kmeans/sites=%d", k), func(b *testing.B) {
			benchQuality(b, ds, k, lib.RepKMeans, 2)
		})
	}
}

// BenchmarkFig11 — quality on the three evaluation data sets A, B and C.
func BenchmarkFig11(b *testing.B) {
	for _, ds := range data.ABC(1) {
		libDS := lib.Dataset{Name: ds.Name, Points: ds.Points, Params: ds.Params}
		b.Run(fmt.Sprintf("scor/dataset=%s", ds.Name), func(b *testing.B) {
			benchQuality(b, libDS, 4, lib.RepScor, 2)
		})
		b.Run(fmt.Sprintf("kmeans/dataset=%s", ds.Name), func(b *testing.B) {
			benchQuality(b, libDS, 4, lib.RepKMeans, 2)
		})
	}
}

// BenchmarkAblationIndex — DBSCAN cost per neighborhood index on data set A
// at its paper cardinality: the access-method choice DESIGN.md calls out.
// No program selects an index, so each kind is built here directly over the
// data set's store, as BenchmarkLocalClustering builds the R*-tree.
func BenchmarkAblationIndex(b *testing.B) {
	ds := data.DatasetA(data.DatasetASize, 1)
	for _, kind := range index.Kinds() {
		idx, err := index.BuildStore(kind, ds.Store, geom.Euclidean{}, ds.Params.Eps)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dbscan.Run(idx, ds.Params, dbscan.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScorCollection — the cost the on-the-fly specific core
// point extraction adds to a plain DBSCAN run.
func BenchmarkAblationScorCollection(b *testing.B) {
	ds := data.DatasetA(data.DatasetASize, 1)
	idx, err := index.Build(index.KindRStar, ds.Points, geom.Euclidean{}, ds.Params.Eps)
	if err != nil {
		b.Fatal(err)
	}
	for _, collect := range []bool{false, true} {
		b.Run(fmt.Sprintf("collect=%v", collect), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dbscan.Run(idx, ds.Params,
					dbscan.Options{CollectSpecificCores: collect}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelEncoding — wire-size and speed of the binary encoding
// against JSON for a realistic local model (the transmission-cost design
// choice).
func BenchmarkModelEncoding(b *testing.B) {
	ds := lib.DatasetA(data.DatasetASize, 1)
	out, err := lib.LocalStep("site-0", ds.Points, lib.Config{Local: ds.Params})
	if err != nil {
		b.Fatal(err)
	}
	m := out.Model
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err := m.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(buf)), "bytes")
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.ReportMetric(float64(m.JSONSize()), "bytes")
		}
	})
	b.Run("gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(m); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(buf.Len()), "bytes")
		}
	})
	b.Run("raw-points-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(float64(m.RawPointsSize(2)), "bytes")
		}
	})
}

// BenchmarkAblationRStarBuild — STR bulk loading of the R*-tree, the build a
// LocalStep pays, over the round-bulk workload's blobs at three sizes and
// over 8-d Gaussian rows, with data set A's Eps as the leaf table's radius.
func BenchmarkAblationRStarBuild(b *testing.B) {
	eps := data.DatasetA(data.DatasetASize, 1).Params.Eps
	rng := rand.New(rand.NewSource(1))
	wide := geom.NewStore(8, 16_000)
	for i := 0; i < 16_000; i++ {
		for d, row := 0, wide.AppendZero(); d < len(row); d++ {
			row[d] = rng.NormFloat64() * 5
		}
	}
	for _, c := range []struct {
		name string
		st   *geom.Store
	}{
		{"bulk/n=4000", data.RoundBulk(4_000, 1).Store},
		{"bulk/n=16000", data.RoundBulk(16_000, 1).Store},
		{"bulk/n=64000", data.RoundBulk(64_000, 1).Store},
		{"bulk/8d-n=16000", wide},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rstar.NewBulkStore(c.st, rstar.DefaultMaxEntries, eps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationModelKind — local model construction cost: REP_Scor
// versus REP_kMeans on one site (the Figure 7a observation that REP_Scor is
// cheaper).
func BenchmarkAblationModelKind(b *testing.B) {
	ds := lib.DatasetA(data.DatasetASize, 1)
	for _, kind := range model.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			cfg := lib.Config{Local: ds.Params, Model: kind}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lib.LocalStep("s", ds.Points, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComparisonMethods — cost of one full distributed clustering per
// method on data set A at 4 sites (quality lives in the comparison table;
// this measures compute).
func BenchmarkComparisonMethods(b *testing.B) {
	ds := data.DatasetA(data.DatasetASize, 1)
	b.Run("dbdc-scor", func(b *testing.B) {
		libDS := lib.Dataset{Name: ds.Name, Points: ds.Points, Params: ds.Params}
		benchDBDC(b, libDS, 4, lib.RepScor)
	})
	b.Run("pdbscan-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pdbscan.Run(ds.Points, ds.Params, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dist-kmeans", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		part, err := data.PartitionRandom(len(ds.Points), 4, rng)
		if err != nil {
			b.Fatal(err)
		}
		sites := part.Extract(ds.Points)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := distkmeans.Run(sites, 10, rng, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalMaintenance — mixed insert/delete stream against the
// incremental DBSCAN clusterer, the site-side cost of the "changed
// considerably" policy.
func BenchmarkIncrementalMaintenance(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inc, err := lib.NewIncremental(lib.Params{Eps: 0.5, MinPts: 5})
	if err != nil {
		b.Fatal(err)
	}
	var live []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(live) > 100 && rng.Float64() < 0.3 {
			k := rng.Intn(len(live))
			if err := inc.Delete(live[k]); err != nil {
				b.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		idx, err := inc.Insert(lib.Point{rng.Float64() * 20, rng.Float64() * 20})
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, idx)
	}
}

// BenchmarkRelabel — step 4 alone: assigning 8700 objects global ids from
// a realistic global model. per-point is Relabel over raw points; site is
// RelabelSite on the LocalStep outcome, the same rule plus its change
// statistics.
func BenchmarkRelabel(b *testing.B) {
	ds := lib.DatasetA(data.DatasetASize, 1)
	out, err := lib.LocalStep("site", ds.Points, lib.Config{Local: ds.Params})
	if err != nil {
		b.Fatal(err)
	}
	g, err := lib.GlobalStep([]*lib.LocalModel{out.Model}, lib.Config{Local: ds.Params})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("per-point", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := lib.Relabel(ds.Points, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("site", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := core.RelabelSite(out, g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSink defeats dead-code elimination in the kernel microbenches.
var benchSink float64

// BenchmarkStoreKernels measures the flat-store hot paths: the strided
// squared-distance kernels against their slice counterparts, and the
// store-backed range-query scan that must run allocation-free (allocs/op =
// 0 in the range loop — also pinned hard by the zero-alloc regression test
// in internal/index; here it sits next to the kernels' timings).
func BenchmarkStoreKernels(b *testing.B) {
	ds := data.DatasetA(20_000, 1)
	st := ds.Store
	n := st.Len()
	e := geom.Euclidean{}

	b.Run("distsq/slice", func(b *testing.B) {
		pts := ds.Points
		var sink float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += e.DistanceSq(pts[i%n], pts[(i*7+1)%n])
		}
		benchSink = sink
	})
	b.Run("distsq/store", func(b *testing.B) {
		var sink float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += st.DistanceSq(i%n, (i*7+1)%n)
		}
		benchSink = sink
	})
	b.Run("distsq-to/slice", func(b *testing.B) {
		pts := ds.Points
		q := geom.Point{50, 50}
		var sink float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += e.DistanceSq(q, pts[i%n])
		}
		benchSink = sink
	})
	b.Run("distsq-to/store", func(b *testing.B) {
		q := geom.Point{50, 50}
		var sink float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += st.DistanceSqTo(i%n, q)
		}
		benchSink = sink
	})

	// Range queries through the reusable-buffer seam. The loops reuse one
	// buffer; they must report allocs/op = 0.
	b.Run(fmt.Sprintf("range/store/%s", index.KindRStar), func(b *testing.B) {
		idx, err := index.BuildStore(index.KindRStar, st, e, ds.Params.Eps)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]int, 0, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = idx.RangeAppend(st.Point(i%n), ds.Params.Eps, buf)
		}
	})
}

// BenchmarkLocalClustering measures the hot path of DBDC's step 1 — one
// site-local DBSCAN with specific core collection — on a 50,000-object
// site. Sub-benchmarks run the R*-tree at one worker against increasing
// worker counts. Range-query counts are reported so the paper's cost model
// sits alongside wall time. Index construction is excluded: the subject is
// the clustering scan.
func BenchmarkLocalClustering(b *testing.B) {
	ds := lib.DatasetA(50_000, 1)
	// DatasetA's stock Eps=1.2 was tuned for the paper's 8,700-object
	// cardinality; at 50,000 objects on the same geometry it yields ~500
	// neighbors per ball, which measures neighborhood materialisation
	// rather than clustering. Scale Eps to the 50k density so neighborhoods
	// stay realistic (a few dozen objects).
	params := dbscan.Params{Eps: 0.25, MinPts: 5}
	opts := dbscan.Options{CollectSpecificCores: true}
	runOnce := func(b *testing.B, idx index.Index, params dbscan.Params, o dbscan.Options) {
		b.Helper()
		b.ReportAllocs()
		var queries int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := dbscan.Run(idx, params, o)
			if err != nil {
				b.Fatal(err)
			}
			queries = res.RangeQueries
		}
		b.ReportMetric(float64(queries), "range-queries/op")
	}
	// One worker on the default index. The linear scan is excluded: O(n²)
	// distance computations at this cardinality measure patience, not
	// kernels (internal/index has per-query benches covering it).
	b.Run(fmt.Sprintf("store/%s", index.KindRStar), func(b *testing.B) {
		// Flat-store bulk load: the index keeps the stride-2 backing array
		// and verifies candidates with the strided kernels. It is built for
		// the radius it is queried at, as LocalStep builds it.
		idx, err := index.BuildStore(index.KindRStar, ds.Store, geom.Euclidean{}, params.Eps)
		if err != nil {
			b.Fatal(err)
		}
		runOnce(b, idx, params, opts)
	})
	// Intra-site parallelism: same index, growing worker budget, to be read
	// against store/rstar, which is the one-worker row. On a single-CPU
	// host the numbers measure coordination overhead, not speedup.
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("parallel/workers=%d", workers), func(b *testing.B) {
			idx, err := index.BuildStore(index.KindRStar, ds.Store, geom.Euclidean{}, params.Eps)
			if err != nil {
				b.Fatal(err)
			}
			o := opts
			o.Workers = workers
			runOnce(b, idx, params, o)
		})
	}
	// The shape bench/round.go's round-bulk clusters (ten σ-2 blobs at fixed
	// centres, 5% uniform noise, every second row of 2·n, Eps 1.2, MinPts 4)
	// on the default index at one and two workers, at its own 16,000 rows
	// and at 64,000. Two workers share the counting step (leaf ranges off a
	// cursor); the union over leaf pairs runs on one, so the pair of rows
	// shows what that sequential share leaves of the speed-up.
	centres := []geom.Point{
		{15, 15}, {50, 12}, {85, 18}, {30, 40}, {68, 42},
		{12, 65}, {48, 70}, {86, 66}, {28, 90}, {70, 92},
	}
	for _, n := range []int{16_000, 64_000} {
		rng := rand.New(rand.NewSource(1))
		all := geom.NewStore(2, 2*n)
		clustered := 2 * n * 95 / 100
		for i, c := range centres {
			k := clustered / len(centres)
			if i < clustered%len(centres) {
				k++
			}
			data.AppendBlob(all, rng, c, 2, k)
		}
		data.AppendUniform(all, rng, geom.NewRect(geom.Point{0, 0}, geom.Point{100, 100}), 2*n-clustered)
		site := geom.NewStore(2, n)
		for i := 0; i < 2*n; i += 2 {
			site.Append(all.Point(i))
		}
		blobParams := dbscan.Params{Eps: 1.2, MinPts: 4}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("parallel/rstar/blobs=%d/workers=%d", n, workers), func(b *testing.B) {
				idx, err := index.BuildStore(index.KindRStar, site, geom.Euclidean{}, blobParams.Eps)
				if err != nil {
					b.Fatal(err)
				}
				o := opts
				o.Workers = workers
				runOnce(b, idx, blobParams, o)
			})
		}
	}
	// Eight dimensions: 2-d rows cannot show two workers that are slower
	// than one once neighborhoods stop being cheap, so one pair runs on
	// 20,000 8-d blob points.
	rng := rand.New(rand.NewSource(1))
	high := geom.NewStore(8, 20_000)
	for c := 0; c < 10; c++ {
		center := make(geom.Point, 8)
		for d := range center {
			center[d] = rng.Float64() * 40
		}
		data.AppendBlob(high, rng, center, 1.5, 2_000)
	}
	highParams := dbscan.Params{Eps: 3, MinPts: 5}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("parallel/dim=8/workers=%d", workers), func(b *testing.B) {
			idx, err := index.BuildStore(index.KindRStar, high, geom.Euclidean{}, highParams.Eps)
			if err != nil {
				b.Fatal(err)
			}
			o := opts
			o.Workers = workers
			runOnce(b, idx, highParams, o)
		})
	}
	// The worst cases of counting to MinPts: round-wire's noise-rich site
	// (data set B, 40% noise, MinPts 8), where most objects never reach
	// MinPts and so collect their whole neighbourhood, and the paper-sized
	// data set A at MinPts 40, ten times its own, where a core object counts
	// far past its own leaf.
	for _, row := range []struct {
		name   string
		ds     lib.Dataset
		params dbscan.Params
	}{
		{"shape=datasetB", lib.DatasetB(1), lib.DatasetB(1).Params},
		{"minpts=40", lib.DatasetA(8_700, 1), dbscan.Params{Eps: 1.2, MinPts: 40}},
	} {
		b.Run(row.name, func(b *testing.B) {
			idx, err := index.BuildStore(index.KindRStar, row.ds.Store, geom.Euclidean{}, row.params.Eps)
			if err != nil {
				b.Fatal(err)
			}
			runOnce(b, idx, row.params, opts)
		})
	}
	// SDBDC representative budgets: the full LocalStep (clustering,
	// condensation, greedy budget selection) with a per-cluster cap, on the
	// paper-sized site over the default index. budget=0 is the unbudgeted baseline, so the rows
	// show the selector's overhead next to the uplink bytes it saves;
	// coverage-fraction shows the quality headroom the budget leaves.
	budgetDS := lib.DatasetA(8_700, 1)
	for _, budget := range []int{0, 16, 4} {
		b.Run(fmt.Sprintf("budget/b=%d", budget), func(b *testing.B) {
			cfg := lib.Config{Local: budgetDS.Params, RepBudget: budget}
			b.ReportAllocs()
			var out *lib.LocalOutcome
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				out, err = lib.LocalStep("bench-site", budgetDS.Points, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(out.Budget.CoverageFraction(), "coverage-fraction")
			b.ReportMetric(float64(out.Model.EncodedSize()), "uplink-bytes")
		})
	}
	// Renegotiation: the re-condensation a capped upload asks of a budget-16
	// outcome, every smaller budget once, each model marshalled as the
	// transport would.
	b.Run("budget/renegotiate", func(b *testing.B) {
		out, err := lib.LocalStep("bench-site", budgetDS.Points, lib.Config{Local: budgetDS.Params, RepBudget: 16})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for budget := 1; budget < 16; budget++ {
				m, _, err := out.BudgetedModel(budget)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.MarshalBinary(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkLoadgenClassify measures the online classification front end
// end-to-end over loopback TCP: a ClassifyServer answering MsgClassify /
// MsgClassifyBatch against the paper-sized data-set-A model, driven
// closed-loop by persistent-connection clients (the in-process twin of
// cmd/dbdc-loadgen). One op is one request round trip carrying batch
// points; conc splits the b.N requests over that many concurrent
// connections, so ns/op is throughput-reciprocal, not per-request
// latency. On a single-CPU host conc>1 measures interleaving and queueing,
// not parallel speedup; points/s is the honest throughput number.
func BenchmarkLoadgenClassify(b *testing.B) {
	ds := lib.DatasetA(8_700, 1)
	out, err := lib.LocalStep("bench-site", ds.Points, lib.Config{Local: ds.Params})
	if err != nil {
		b.Fatal(err)
	}
	global, err := lib.GlobalStep([]*lib.LocalModel{out.Model}, lib.Config{Local: ds.Params})
	if err != nil {
		b.Fatal(err)
	}
	registry := lib.NewModelRegistry()
	if _, err := registry.Publish(global); err != nil {
		b.Fatal(err)
	}
	srv, err := lib.NewClassifyServer("127.0.0.1:0", lib.ClassifyServerConfig{Registry: registry})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve()

	for _, tc := range []struct{ conc, batch int }{{1, 1}, {1, 32}, {4, 1}, {4, 32}} {
		b.Run(fmt.Sprintf("conc=%d/batch=%d", tc.conc, tc.batch), func(b *testing.B) {
			clients := make([]*lib.ClassifyClient, tc.conc)
			for i := range clients {
				c, err := lib.DialClassify(srv.Addr(), 0)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, tc.conc)
			for w := 0; w < tc.conc; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := clients[w]
					for i := w; i < b.N; i += tc.conc {
						// Cycle through the dataset at staggered offsets so
						// requests exercise different index regions.
						off := (i * tc.batch) % (len(ds.Points) - tc.batch)
						if tc.batch == 1 {
							if _, _, err := c.Classify(ds.Points[off]); err != nil {
								errs <- err
								return
							}
							continue
						}
						if _, _, err := c.ClassifyBatch(ds.Points[off : off+tc.batch]); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errs:
				b.Fatal(err)
			default:
			}
			b.ReportMetric(float64(tc.batch)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}
