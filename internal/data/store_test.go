package data

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// TestAppendGeneratorsMatchSlice pins the promise in store.go: for the same
// seed, the store-filling generators draw from the RNG in exactly the same
// order as the slice generators and therefore produce coordinate-identical
// data. Exact float64 equality, not tolerance — the two paths must be
// interchangeable in experiments without perturbing a single label.
func TestAppendGeneratorsMatchSlice(t *testing.T) {
	const seed = 99
	check := func(name string, pts []geom.Point, st *geom.Store) {
		t.Helper()
		if st.Len() != len(pts) {
			t.Fatalf("%s: store holds %d points, slice %d", name, st.Len(), len(pts))
		}
		for i, p := range pts {
			row := st.Point(i)
			for d := range p {
				if p[d] != row[d] {
					t.Fatalf("%s: point %d coordinate %d: slice %v, store %v", name, i, d, p[d], row[d])
				}
			}
		}
	}

	center := geom.Point{3, -2, 7}
	pts := Blob(rand.New(rand.NewSource(seed)), center, 0.7, 257)
	st := geom.NewStore(3, 0)
	AppendBlob(st, rand.New(rand.NewSource(seed)), center, 0.7, 257)
	check("blob", pts, st)

	rect := geom.NewRect(geom.Point{-5, 0}, geom.Point{5, 12})
	pts = Uniform(rand.New(rand.NewSource(seed)), rect, 143)
	st = geom.NewStore(2, 0)
	AppendUniform(st, rand.New(rand.NewSource(seed)), rect, 143)
	check("uniform", pts, st)

	pts = Ring(rand.New(rand.NewSource(seed)), 4, -3, 6, 0.4, 211)
	st = geom.NewStore(2, 0)
	AppendRing(st, rand.New(rand.NewSource(seed)), 4, -3, 6, 0.4, 211)
	check("ring", pts, st)
}

// TestDatasetPointsAliasStore: Dataset.Points are zero-copy views into
// Dataset.Store — same backing coordinates, not copies.
func TestDatasetPointsAliasStore(t *testing.T) {
	for _, ds := range ABC(5) {
		if ds.Store == nil {
			t.Fatalf("dataset %s has no store", ds.Name)
		}
		if ds.Store.Len() != len(ds.Points) {
			t.Fatalf("dataset %s: store %d points, slice %d", ds.Name, ds.Store.Len(), len(ds.Points))
		}
		if len(ds.Truth) != len(ds.Points) {
			t.Fatalf("dataset %s: %d truth labels for %d points", ds.Name, len(ds.Truth), len(ds.Points))
		}
		for _, i := range []int{0, len(ds.Points) / 2, len(ds.Points) - 1} {
			if &ds.Points[i][0] != &ds.Store.Point(i)[0] {
				t.Fatalf("dataset %s: Points[%d] does not alias Store.Point(%d)", ds.Name, i, i)
			}
		}
	}
}

// TestReadCSVStoreRoundTrip: WriteCSV → ReadCSVStore reproduces the points
// exactly in one flat store, and ReadCSV keeps returning views of it.
func TestReadCSVStoreRoundTrip(t *testing.T) {
	pts := Blob(rand.New(rand.NewSource(11)), geom.Point{1, 2}, 3, 50)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	st, err := ReadCSVStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Dim() != 2 || st.Len() != len(pts) {
		t.Fatalf("store %dx%d, want %dx2", st.Len(), st.Dim(), len(pts))
	}
	for i, p := range pts {
		row := st.Point(i)
		if p[0] != row[0] || p[1] != row[1] {
			t.Fatalf("point %d: wrote %v, read %v", i, p, row)
		}
	}

	// Empty input: no stride to size a store with — nil store, nil error.
	st, err = ReadCSVStore(bytes.NewReader(nil))
	if err != nil || st != nil {
		t.Fatalf("empty input: store %v err %v, want nil nil", st, err)
	}
	if pts, err := ReadCSV(bytes.NewReader(nil)); err != nil || pts != nil {
		t.Fatalf("empty input via ReadCSV: %v, %v", pts, err)
	}
}
