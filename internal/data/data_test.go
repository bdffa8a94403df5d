package data

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/quality"
)

func TestBlob(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	st := geom.NewStore(2, 0)
	AppendBlob(st, rng, geom.Point{5, -3}, 0.5, 1000)
	pts := st.Views()
	if len(pts) != 1000 {
		t.Fatalf("len = %d", len(pts))
	}
	c := geom.Centroid(pts)
	if (geom.Euclidean{}).Distance(c, geom.Point{5, -3}) > 0.1 {
		t.Fatalf("centroid %v far from center", c)
	}
}

func TestUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rect := geom.NewRect(geom.Point{-1, 2}, geom.Point{3, 4})
	st := geom.NewStore(2, 0)
	AppendUniform(st, rng, rect, 500)
	for _, p := range st.Views() {
		if p[0] < rect.Min[0] || p[0] > rect.Max[0] || p[1] < rect.Min[1] || p[1] > rect.Max[1] {
			t.Fatalf("point %v outside rect", p)
		}
	}
}

func TestRing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st := geom.NewStore(2, 0)
	AppendRing(st, rng, 0, 0, 10, 0.2, 800)
	for _, p := range st.Views() {
		r := p.Norm()
		if r < 8 || r > 12 {
			t.Fatalf("ring point at radius %v", r)
		}
	}
}

func TestDatasetCardinalities(t *testing.T) {
	if n := len(DatasetA(DatasetASize, 1).Points); n != 8700 {
		t.Errorf("A: %d points, want 8700", n)
	}
	if n := len(DatasetB(1).Points); n != 4000 {
		t.Errorf("B: %d points, want 4000", n)
	}
	if n := len(DatasetC(1).Points); n != 1021 {
		t.Errorf("C: %d points, want 1021", n)
	}
	if got := len(ABC(1)); got != 3 {
		t.Errorf("ABC returned %d datasets", got)
	}
}

func TestDatasetsDeterministic(t *testing.T) {
	a1 := DatasetA(1000, 42)
	a2 := DatasetA(1000, 42)
	for i := range a1.Points {
		if !a1.Points[i].Equal(a2.Points[i]) {
			t.Fatal("DatasetA not deterministic")
		}
	}
	a3 := DatasetA(1000, 43)
	same := true
	for i := range a3.Points {
		if !a1.Points[i].Equal(a3.Points[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

// The data sets must reproduce their paper characteristics under their own
// parameters: A clusters with a little noise, B heavily noisy, C exactly 3
// clusters.
func TestDatasetCharacteristics(t *testing.T) {
	for _, ds := range ABC(7) {
		idx, err := index.Build(index.KindRStar, ds.Points, geom.Euclidean{}, ds.Params.Eps)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dbscan.Run(idx, ds.Params, dbscan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		noiseFrac := float64(res.Labels.NumNoise()) / float64(len(ds.Points))
		switch ds.Name {
		case "A":
			if res.NumClusters() < 5 || res.NumClusters() > 12 {
				t.Errorf("A: %d clusters", res.NumClusters())
			}
			if noiseFrac > 0.10 {
				t.Errorf("A: noise fraction %v too high", noiseFrac)
			}
		case "B":
			if res.NumClusters() < 3 || res.NumClusters() > 10 {
				t.Errorf("B: %d clusters", res.NumClusters())
			}
			if noiseFrac < 0.2 {
				t.Errorf("B: noise fraction %v — data not 'very noisy'", noiseFrac)
			}
		case "C":
			if res.NumClusters() != 3 {
				t.Errorf("C: %d clusters, want exactly 3", res.NumClusters())
			}
			if noiseFrac > 0.05 {
				t.Errorf("C: noise fraction %v too high", noiseFrac)
			}
		}
	}
}

func TestPartitionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, err := PartitionRandom(103, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(103); err != nil {
		t.Fatal(err)
	}
	for _, site := range p.Sites {
		if len(site) < 25 || len(site) > 26 {
			t.Fatalf("unbalanced site of %d objects", len(site))
		}
	}
	if _, err := PartitionRandom(10, 0, rng); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestPartitionRoundRobin(t *testing.T) {
	p, err := PartitionRoundRobin(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(10); err != nil {
		t.Fatal(err)
	}
	if p.Sites[0][1] != 3 {
		t.Fatalf("round robin layout wrong: %v", p.Sites)
	}
}

func TestPartitionSpatial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	st := geom.NewStore(2, 0)
	AppendBlob(st, rng, geom.Point{0, 0}, 5, 400)
	pts := st.Views()
	p, err := PartitionSpatial(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(400); err != nil {
		t.Fatal(err)
	}
	// Sectors of an isotropic blob are roughly balanced.
	for _, site := range p.Sites {
		if len(site) < 50 {
			t.Fatalf("sector with only %d objects", len(site))
		}
	}
	// Every sector sees a different region: site centroids must differ.
	ext := p.Extract(pts)
	c0 := geom.Centroid(ext[0])
	c1 := geom.Centroid(ext[1])
	if (geom.Euclidean{}).Distance(c0, c1) < 1 {
		t.Fatal("spatial partition does not separate regions")
	}
	if _, err := PartitionSpatial([]geom.Point{{1}}, 2); err == nil {
		t.Error("1-d data accepted")
	}
}

func TestAssembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 57
	p, err := PartitionRandom(n, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Per-site values are the original indexes; assembling must recover
	// the identity.
	perSite := make([][]int, len(p.Sites))
	for s, site := range p.Sites {
		perSite[s] = append([]int(nil), site...)
	}
	out, err := Assemble(p, perSite, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("Assemble[%d] = %d", i, v)
		}
	}
	// Length mismatch must be rejected.
	perSite[0] = perSite[0][:1]
	if _, err := Assemble(p, perSite, n); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestPartitionValidateCatchesErrors(t *testing.T) {
	p := &Partition{Sites: [][]int{{0, 1}, {1}}}
	if err := p.Validate(3); err == nil {
		t.Error("duplicate assignment accepted")
	}
	p = &Partition{Sites: [][]int{{0, 5}}}
	if err := p.Validate(3); err == nil {
		t.Error("out-of-range index accepted")
	}
	p = &Partition{Sites: [][]int{{0}}}
	if err := p.Validate(3); err == nil {
		t.Error("missing objects accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	pts := []geom.Point{{1.5, -2.25}, {0, 3.125}, {1e-9, 12345.6789}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("got %d points", len(got))
	}
	for i := range pts {
		if !got[i].Equal(pts[i]) {
			t.Fatalf("point %d: %v != %v", i, got[i], pts[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"mixed columns": "1,2\n3\n",
		"non-numeric":   "1,abc\n",
		"nan":           "1,NaN\n",
	}
	for name, input := range cases {
		if _, err := ReadCSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if pts, err := ReadCSV(strings.NewReader("")); err != nil || len(pts) != 0 {
		t.Errorf("empty csv: %v, %v", pts, err)
	}
}

func TestDatasetAScalesDensity(t *testing.T) {
	// The Eps parameter must keep working across the Figure 7 cardinality
	// sweep: the small and large variants both produce clusters.
	for _, n := range []int{500, 8700, 25000} {
		ds := DatasetA(n, 3)
		idx, err := index.Build(index.KindRStar, ds.Points, geom.Euclidean{}, ds.Params.Eps)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dbscan.Run(idx, ds.Params, dbscan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumClusters() < 3 {
			t.Errorf("A(n=%d): only %d clusters", n, res.NumClusters())
		}
		frac := float64(res.Labels.NumNoise()) / float64(n)
		if frac > 0.25 {
			t.Errorf("A(n=%d): noise fraction %v", n, frac)
		}
	}
}

func TestRingNoNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	st := geom.NewStore(2, 0)
	AppendRing(st, rng, 1, 1, 3, 0.1, 100)
	for _, p := range st.Views() {
		if !p.IsFinite() {
			t.Fatalf("non-finite ring point %v", p)
		}
		if math.IsNaN(p[0]) {
			t.Fatal("nan")
		}
	}
}

func TestDatasetTruthConsistency(t *testing.T) {
	for _, ds := range ABC(5) {
		if len(ds.Truth) != len(ds.Points) {
			t.Fatalf("%s: truth has %d labels for %d points", ds.Name, len(ds.Truth), len(ds.Points))
		}
		if err := ds.Truth.Validate(); err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		switch ds.Name {
		case "A":
			if ds.Truth.NumClusters() != 10 || ds.Truth.NumNoise() != len(ds.Points)-len(ds.Points)*95/100 {
				t.Fatalf("A truth: clusters=%d noise=%d", ds.Truth.NumClusters(), ds.Truth.NumNoise())
			}
		case "B":
			if ds.Truth.NumClusters() != 5 {
				t.Fatalf("B truth clusters = %d", ds.Truth.NumClusters())
			}
		case "C":
			if ds.Truth.NumClusters() != 3 || ds.Truth.NumNoise() != 0 {
				t.Fatalf("C truth: clusters=%d noise=%d", ds.Truth.NumClusters(), ds.Truth.NumNoise())
			}
		}
	}
	// The central clustering under the suggested parameters must agree
	// strongly with the truth (the data sets are only useful if it does).
	ds := DatasetC(5)
	idx, err := index.Build(index.KindRStar, ds.Points, geom.Euclidean{}, ds.Params.Eps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dbscan.Run(idx, ds.Params, dbscan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := quality.AdjustedRandIndex(res.Labels, ds.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.95 {
		t.Fatalf("C: central clustering vs truth ARI = %v", ari)
	}
}
