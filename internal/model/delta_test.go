package model

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
)

func deltaFixture() *LocalDelta {
	return &LocalDelta{
		Seq: 4,
		Model: &LocalModel{
			SiteID:      "site-a",
			Kind:        RepScor,
			EpsLocal:    0.5,
			MinPts:      4,
			NumObjects:  120,
			NumClusters: 2,
			Reps: []Representative{
				{Point: geom.Point{1, 2}, Eps: 0.4, LocalCluster: 0},
				{Point: geom.Point{-3, 0.5}, Eps: 0.3, LocalCluster: 1},
			},
		},
	}
}

func randomLocalModel(rng *rand.Rand, siteID string, nClusters int) *LocalModel {
	m := &LocalModel{
		SiteID:      siteID,
		Kind:        RepScor,
		EpsLocal:    0.5,
		MinPts:      4,
		NumClusters: nClusters,
	}
	for c := 0; c < nClusters; c++ {
		for r := 0; r < 2+rng.Intn(5); r++ {
			m.Reps = append(m.Reps, Representative{
				Point:        geom.Point{rng.NormFloat64(), rng.NormFloat64()},
				Eps:          0.1 + rng.Float64(),
				LocalCluster: cluster.ID(c),
			})
			m.NumObjects++
		}
	}
	return m
}

func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dup := deltaFixture()
	dup.Model.Reps = append(dup.Model.Reps, dup.Model.Reps[0], dup.Model.Reps[0])
	all := []*LocalDelta{
		deltaFixture(),
		dup,
		{Seq: 1, Model: &LocalModel{SiteID: "all-noise", Kind: RepKMeans, EpsLocal: 1, MinPts: 3, NumObjects: 40}},
	}
	for i := 0; i < 5; i++ {
		all = append(all, &LocalDelta{Seq: rng.Uint64() | 1, Model: randomLocalModel(rng, "site-x", 1+rng.Intn(4))})
	}
	for _, d := range all {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		b, err := d.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != d.EncodedSize() {
			t.Fatalf("%s: %d bytes, EncodedSize %d", d.Model.SiteID, len(b), d.EncodedSize())
		}
		var got LocalDelta
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		if d.Model.Reps == nil && len(got.Model.Reps) == 0 {
			got.Model.Reps = nil // the decoder makes an empty slice
		}
		if !reflect.DeepEqual(&got, d) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d)
		}
		// Prefix decode must consume exactly the upload and tolerate a trailer.
		n, err := got.UnmarshalBinaryPrefix(append(b, 0xAA, 0xBB))
		if err != nil {
			t.Fatal(err)
		}
		if n != len(b) {
			t.Fatalf("prefix decode consumed %d of %d bytes", n, len(b))
		}
	}
}

// An upload is the LocalModel frame verbatim behind 10 bytes of tag, version
// and sequence number, encoded in one allocation.
func TestDeltaCarriesModelFrame(t *testing.T) {
	d := deltaFixture()
	up, _ := d.MarshalBinary()
	full, _ := d.Model.MarshalBinary()
	if !bytes.Equal(up[deltaHeaderSize:], full) || len(up) != len(full)+10 {
		t.Fatalf("upload is not the model frame behind a 10-byte header")
	}
	if up[0] != tagLocalDelta || up[1] != wireVersion {
		t.Fatalf("header % x", up[:2])
	}
	if n := testing.AllocsPerRun(20, func() { d.MarshalBinary() }); n != 1 {
		t.Fatalf("MarshalBinary allocates %v times, want 1", n)
	}
}

func TestDeltaValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*LocalDelta)
	}{
		{"zero seq", func(d *LocalDelta) { d.Seq = 0 }},
		{"no model", func(d *LocalDelta) { d.Model = nil }},
		{"no site", func(d *LocalDelta) { d.Model.SiteID = "" }},
		{"bad kind", func(d *LocalDelta) { d.Model.Kind = "nonsense" }},
		{"bad eps", func(d *LocalDelta) { d.Model.EpsLocal = 0 }},
		{"empty point", func(d *LocalDelta) { d.Model.Reps[0].Point = nil }},
		{"mixed dims", func(d *LocalDelta) { d.Model.Reps[1].Point = geom.Point{1, 2, 3} }},
		{"bad rep eps", func(d *LocalDelta) { d.Model.Reps[0].Eps = -1 }},
		{"noise rep", func(d *LocalDelta) { d.Model.Reps[0].LocalCluster = cluster.Noise }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := deltaFixture()
			tc.mutate(d)
			if err := d.Validate(); err == nil {
				t.Error("accepted")
			}
		})
	}
}

// The decoder takes only a delta tag, its version and a LocalModel frame
// behind the sequence number.
func TestDeltaRefusesForeignFrames(t *testing.T) {
	good, _ := deltaFixture().MarshalBinary()
	full, _ := deltaFixture().Model.MarshalBinary()
	wrongVersion := append([]byte(nil), good...)
	wrongVersion[1]++
	innerVersion := append([]byte(nil), good...)
	innerVersion[deltaHeaderSize+1]++
	cases := map[string][]byte{
		"model frame":         full,
		"wrong version":       wrongVersion,
		"inner model version": innerVersion,
		"delta in a delta":    append(good[:deltaHeaderSize:deltaHeaderSize], good...),
		"short sequence":      good[:6],
		"no model":            good[:deltaHeaderSize],
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			var d LocalDelta
			if err := d.UnmarshalBinary(data); err == nil {
				t.Error("accepted")
			}
		})
	}
}

// The tracker numbers uploads from 1 and advances only on Commit, so an
// upload that was never acknowledged goes out again under the same number.
func TestTrackerNumbersUploads(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tracker := NewDeltaTracker()
	m := randomLocalModel(rng, "site-x", 3)
	first := tracker.Delta(m)
	if first.Seq != 1 || first.Model != m || tracker.Seq() != 0 {
		t.Fatalf("first upload seq %d, tracker at %d", first.Seq, tracker.Seq())
	}
	if again := tracker.Delta(m); again.Seq != 1 {
		t.Fatalf("unacknowledged upload renumbered to %d", again.Seq)
	}
	tracker.Commit(first)
	next := randomLocalModel(rng, "site-x", 2)
	if d := tracker.Delta(next); d.Seq != 2 || d.Model != next || tracker.Seq() != 1 {
		t.Fatalf("second upload seq %d, tracker at %d", d.Seq, tracker.Seq())
	}
}

// FuzzLocalDeltaUnmarshal asserts no byte sequence can panic the delta
// decoder or make it allocate unboundedly, and that accepted inputs
// re-marshal byte-identically (the encoding is canonical).
func FuzzLocalDeltaUnmarshal(f *testing.F) {
	seed, _ := deltaFixture().MarshalBinary()
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated
	f.Add([]byte{})
	f.Add([]byte{tagLocalDelta, wireVersion})
	// A huge representative count with no bytes behind it.
	empty := deltaFixture()
	empty.Model.Reps = nil
	head, _ := empty.MarshalBinary()
	f.Add(append(head[:len(head)-4], 0xFF, 0xFF, 0xFF, 0x7F))

	f.Fuzz(func(t *testing.T, data []byte) {
		var d LocalDelta
		if err := d.UnmarshalBinary(data); err != nil {
			return
		}
		if len(d.Model.Reps) > len(data) {
			t.Fatalf("decoded %d representatives from %d bytes", len(d.Model.Reps), len(data))
		}
		out, err := d.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted delta: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("delta did not round-trip canonically")
		}
	})
}
