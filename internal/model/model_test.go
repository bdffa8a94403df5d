package model

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/wire"
)

func sampleLocal(rng *rand.Rand, siteID string, nReps int) *LocalModel {
	m := &LocalModel{
		SiteID:      siteID,
		Kind:        RepScor,
		EpsLocal:    0.5,
		MinPts:      5,
		NumObjects:  1000,
		NumClusters: 3,
	}
	for i := 0; i < nReps; i++ {
		m.Reps = append(m.Reps, Representative{
			Point:        geom.Point{rng.NormFloat64(), rng.NormFloat64()},
			Eps:          0.5 + rng.Float64()*0.5,
			LocalCluster: cluster.ID(i % 3),
		})
	}
	return m
}

func sampleGlobal(rng *rand.Rand, nReps int) *GlobalModel {
	g := &GlobalModel{EpsGlobal: 1.0, MinPtsGlobal: 2}
	ids := map[cluster.ID]bool{}
	for i := 0; i < nReps; i++ {
		id := cluster.ID(i % 4)
		ids[id] = true
		g.Reps = append(g.Reps, GlobalRepresentative{
			Representative: Representative{
				Point:        geom.Point{rng.NormFloat64(), rng.NormFloat64()},
				Eps:          1,
				LocalCluster: 0,
			},
			SiteID:        "site-1",
			GlobalCluster: id,
		})
	}
	g.NumClusters = len(ids)
	return g
}

func TestLocalModelValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := sampleLocal(rng, "s1", 5)
	if err := m.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*LocalModel)
	}{
		{"empty site id", func(m *LocalModel) { m.SiteID = "" }},
		{"bad kind", func(m *LocalModel) { m.Kind = "nope" }},
		{"bad eps", func(m *LocalModel) { m.EpsLocal = 0 }},
		{"nan eps", func(m *LocalModel) { m.EpsLocal = nan() }},
		{"inf eps", func(m *LocalModel) { m.EpsLocal = math.Inf(1) }},
		{"empty point", func(m *LocalModel) { m.Reps[0].Point = nil }},
		{"nan point", func(m *LocalModel) { m.Reps[0].Point = geom.Point{0, nan()} }},
		{"dim mismatch", func(m *LocalModel) { m.Reps[1].Point = geom.Point{1} }},
		{"zero rep eps", func(m *LocalModel) { m.Reps[2].Eps = 0 }},
		{"nan rep eps", func(m *LocalModel) { m.Reps[2].Eps = nan() }},
		{"+inf rep eps", func(m *LocalModel) { m.Reps[2].Eps = math.Inf(1) }},
		{"-inf rep eps", func(m *LocalModel) { m.Reps[2].Eps = math.Inf(-1) }},
		{"noise cluster id", func(m *LocalModel) { m.Reps[3].LocalCluster = cluster.Noise }},
	}
	for _, c := range cases {
		mm := sampleLocal(rng, "s1", 5)
		c.mutate(mm)
		if err := mm.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestGlobalModelValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := sampleGlobal(rng, 8)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	g.Reps[0].GlobalCluster = cluster.Noise
	if err := g.Validate(); err == nil {
		t.Error("noise global rep accepted")
	}
	g = sampleGlobal(rng, 8)
	g.NumClusters = 99
	if err := g.Validate(); err == nil {
		t.Error("wrong NumClusters accepted")
	}
	cases := []struct {
		name   string
		mutate func(*GlobalModel)
	}{
		{"negative EpsGlobal", func(g *GlobalModel) { g.EpsGlobal = -1 }},
		{"nan EpsGlobal", func(g *GlobalModel) { g.EpsGlobal = nan() }},
		{"+inf EpsGlobal", func(g *GlobalModel) { g.EpsGlobal = math.Inf(1) }},
		{"zero rep eps", func(g *GlobalModel) { g.Reps[2].Eps = 0 }},
		{"nan rep eps", func(g *GlobalModel) { g.Reps[2].Eps = nan() }},
		{"+inf rep eps", func(g *GlobalModel) { g.Reps[2].Eps = math.Inf(1) }},
		{"-inf rep eps", func(g *GlobalModel) { g.Reps[2].Eps = math.Inf(-1) }},
	}
	for _, c := range cases {
		gg := sampleGlobal(rng, 8)
		c.mutate(gg)
		if err := gg.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestMaxEps(t *testing.T) {
	m := &LocalModel{Reps: []Representative{{Eps: 0.5}, {Eps: 1.5}, {Eps: 1.0}}}
	if got := m.MaxEps(); got != 1.5 {
		t.Errorf("MaxEps = %v, want 1.5", got)
	}
	if got := (&LocalModel{}).MaxEps(); got != 0 {
		t.Errorf("MaxEps of empty = %v", got)
	}
}

func TestLocalModelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 100} {
		m := sampleLocal(rng, "site-α/β", n) // non-ASCII site id
		b, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got LocalModel
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(m.Reps, got.Reps) && !(len(m.Reps) == 0 && len(got.Reps) == 0) {
			t.Fatalf("n=%d: reps differ", n)
		}
		if got.SiteID != m.SiteID || got.Kind != m.Kind || got.EpsLocal != m.EpsLocal ||
			got.MinPts != m.MinPts || got.NumObjects != m.NumObjects ||
			got.NumClusters != m.NumClusters {
			t.Fatalf("n=%d: header differs: %+v vs %+v", n, got, m)
		}
	}
}

func TestGlobalModelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 9, 64} {
		g := sampleGlobal(rng, n)
		b, err := g.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got GlobalModel
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(g.Reps, got.Reps) && !(len(g.Reps) == 0 && len(got.Reps) == 0) {
			t.Fatalf("n=%d: reps differ", n)
		}
		if got.EpsGlobal != g.EpsGlobal || got.MinPtsGlobal != g.MinPtsGlobal ||
			got.NumClusters != g.NumClusters {
			t.Fatalf("n=%d: header differs", n)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var m LocalModel
	if err := m.UnmarshalBinary(nil); err == nil {
		t.Error("empty frame accepted")
	}
	if err := m.UnmarshalBinary([]byte{0xFF, 0x01}); err == nil {
		t.Error("wrong tag accepted")
	}
	if err := m.UnmarshalBinary([]byte{tagLocalModel, 99}); err == nil {
		t.Error("wrong version accepted")
	}
	// Truncation at every prefix length of a valid frame must error, never
	// panic.
	rng := rand.New(rand.NewSource(5))
	full, err := sampleLocal(rng, "s", 3).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		var mm LocalModel
		if err := mm.UnmarshalBinary(full[:cut]); err == nil {
			t.Fatalf("truncated frame of %d bytes accepted", cut)
		}
	}
	// Trailing garbage must be rejected too.
	var mm LocalModel
	if err := mm.UnmarshalBinary(append(append([]byte{}, full...), 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestUnmarshalRejectsHugeCounts(t *testing.T) {
	// Craft a frame claiming 2^31 representatives.
	w := wire.NewWriter(nil)
	w.U8(tagLocalModel)
	w.U8(wireVersion)
	w.Str("s")
	w.Str(string(RepScor))
	w.F64(1)
	w.I32(5)
	w.I32(10)
	w.I32(1)
	w.U32(1 << 31)
	var m LocalModel
	if err := m.UnmarshalBinary(w.Bytes()); err == nil {
		t.Fatal("huge rep count accepted")
	}
	if !strings.Contains(func() string {
		err := m.UnmarshalBinary(w.Bytes())
		return err.Error()
	}(), "") {
		t.Fatal("unreachable")
	}
}

func TestGlobalUnmarshalTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	full, err := sampleGlobal(rng, 3).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		var g GlobalModel
		if err := g.UnmarshalBinary(full[:cut]); err == nil {
			t.Fatalf("truncated global frame of %d bytes accepted", cut)
		}
	}
}

func TestCompressionVersusRawPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// 1000 objects represented by 50 reps: the binary model must be far
	// smaller than shipping the raw points.
	m := sampleLocal(rng, "s1", 50)
	enc := m.EncodedSize()
	raw := m.RawPointsSize(2)
	if enc*4 > raw {
		t.Fatalf("model %dB not much smaller than raw %dB", enc, raw)
	}
	// And the binary encoding must beat JSON.
	if jsonSize := m.JSONSize(); jsonSize <= enc {
		t.Fatalf("JSON (%dB) unexpectedly smaller than binary (%dB)", jsonSize, enc)
	}
}

func BenchmarkLocalModelMarshal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := sampleLocal(rng, "s1", 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalModelUnmarshal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data, _ := sampleLocal(rng, "s1", 500).MarshalBinary()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m LocalModel
		if err := m.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}
