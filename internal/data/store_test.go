package data

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
)

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
	src := geom.NewStore(2, 0)
	AppendBlob(src, rand.New(rand.NewSource(11)), geom.Point{1, 2}, 3, 50)
	pts := src.Views()
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
