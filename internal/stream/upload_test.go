package stream

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	idbdc "github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// windowRecorder acks every upload and keeps its model beside the window the
// site held at that moment: the last Window points of stream.
type windowRecorder struct {
	window  int
	stream  *[]geom.Point
	models  []*model.LocalModel
	windows [][]geom.Point
}

func (r *windowRecorder) Upload(full *model.LocalModel, delta *model.LocalDelta, _ *transport.StreamStats) (*transport.UploadResult, error) {
	s := *r.stream
	r.models = append(r.models, full)
	r.windows = append(r.windows, s[max(0, len(s)-r.window):])
	return &transport.UploadResult{Mode: transport.ModeDelta, Seq: delta.Seq}, nil
}

// churnStream is the repository benchmark's stream-churn shape at a quarter
// of its size: three uniform discs in a row, two of whose gaps a ten-point
// chain bridges once per period, merging their discs until the window evicts
// the chain; the rest is sparse background.
func churnStream(rng *rand.Rand, n int) []geom.Point {
	const radius, pitch, period = 1.4, 3.9, 256
	pts := make([]geom.Point, n)
	for i := range pts {
		k, j := i%8, i%period/8 // j: the mover's step within the period
		switch {
		case k < 6:
			a, r := 2*math.Pi*rng.Float64(), radius*math.Sqrt(rng.Float64())
			pts[i] = geom.Point{float64(k%3)*pitch + r*math.Cos(a), r * math.Sin(a)}
		case k == 7 && j%16 < 10:
			from := float64(j/16)*pitch + radius - 0.3
			pts[i] = geom.Point{from + (pitch-2*radius+0.6)*float64(j%16)/9, 0.05 * rng.Float64()}
		default:
			pts[i] = geom.Point{-10 + 25*rng.Float64(), 4 + 20*rng.Float64()}
		}
	}
	return pts
}

// randomChurn draws blobs around a centre that jumps every 40 points, one
// point in five uniform noise.
func randomChurn(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	var centre geom.Point
	for i := range pts {
		if i%40 == 0 {
			centre = geom.Point{6 * rng.Float64(), 6 * rng.Float64()}
		}
		if rng.Intn(5) == 0 {
			pts[i] = geom.Point{8 * rng.Float64(), 8 * rng.Float64()}
		} else {
			pts[i] = blobPoint(rng, centre, 0.3)
		}
	}
	return pts
}

// Every upload — condensed from the incremental clusterer's state — marshals
// to the bytes of the batch LocalStep over the window at that moment.
func TestUploadMatchesLocalStep(t *testing.T) {
	streams := map[string]func(*rand.Rand, int) []geom.Point{"churn": churnStream, "random": randomChurn}
	configs := map[string]func(*idbdc.Config){
		"scor":     func(*idbdc.Config) {},
		"kmeans":   func(c *idbdc.Config) { c.Model = model.RepKMeans },
		"budget-2": func(c *idbdc.Config) { c.RepBudget = 2 },
	}
	for sname, gen := range streams {
		for cname, mutate := range configs {
			t.Run(sname+"/"+cname, func(t *testing.T) {
				cfg := testCfg(128)
				cfg.CheckEvery = 16
				mutate(&cfg.Cluster)
				var ingested []geom.Point
				rec := &windowRecorder{window: cfg.Window, stream: &ingested}
				site, err := NewSite(cfg, rec)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range gen(rand.New(rand.NewSource(7)), 1024) {
					ingested = append(ingested, p)
					if err := site.Ingest(p); err != nil {
						t.Fatal(err)
					}
				}
				if err := site.Flush(); err != nil {
					t.Fatal(err)
				}
				if len(rec.models) < 6 {
					t.Fatalf("%d uploads: too few to compare", len(rec.models))
				}
				for k, m := range rec.models {
					batch, err := idbdc.LocalStep(cfg.SiteID, rec.windows[k], cfg.Cluster)
					if err != nil {
						t.Fatal(err)
					}
					want, err := batch.Model.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					got, err := m.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("upload %d of %d over %d points: %d bytes, LocalStep's model %d", k, len(rec.models), len(rec.windows[k]), len(got), len(want))
					}
				}
			})
		}
	}
}

// Flush on a site that has ingested nothing uploads LocalStep's model over
// zero points: FromCores over an empty packed tree.
func TestFlushEmptyWindowMatchesLocalStep(t *testing.T) {
	cfg := testCfg(64)
	var none []geom.Point
	rec := &windowRecorder{window: cfg.Window, stream: &none}
	site, err := NewSite(cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.models) != 1 {
		t.Fatalf("%d uploads, want 1", len(rec.models))
	}
	batch, err := idbdc.LocalStep(cfg.SiteID, nil, cfg.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch.Model.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.models[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("empty upload %x, LocalStep's model %x", got, want)
	}
}

// A change check that does not upload allocates the resolved labeling and
// the pair statistics, and no copy of the snapshot: in the steady state of a
// window PadSnapshot hands it back as it is.
func TestChangeCheckAllocs(t *testing.T) {
	up := &fakeUploader{}
	site, err := NewSite(testCfg(100), up)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, site, rand.New(rand.NewSource(10)), geom.Point{0, 0}, 300)
	if err := site.Flush(); err != nil { // the snapshot is now the current labeling
		t.Fatal(err)
	}
	uploads := len(up.calls)
	allocs := testing.AllocsPerRun(20, func() {
		if err := site.maybeUpload(); err != nil {
			t.Fatal(err)
		}
	})
	if len(up.calls) != uploads {
		t.Fatal("an unchanged clustering uploaded")
	}
	if allocs > 8 {
		t.Fatalf("%.0f allocations per change check, want at most 8 (Labels 1, pair statistics 7)", allocs)
	}
}
