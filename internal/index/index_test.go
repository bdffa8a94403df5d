package index

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
)

func randomPoints(rng *rand.Rand, n, dim int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for j := range p {
			p[j] = rng.NormFloat64() * 5
		}
		pts[i] = p
	}
	return pts
}

func TestBuildAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 50, 2)
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			idx, err := Build(kind, pts, geom.Euclidean{}, 1.0)
			if err != nil {
				t.Fatalf("Build failed: %v", err)
			}
			if idx.Len() != 50 {
				t.Errorf("Len = %d, want 50", idx.Len())
			}
			if !idx.Point(7).Equal(pts[7]) {
				t.Error("Point(7) mismatch")
			}
		})
	}
}

// TestBuildUnknownKind: a kind BuildStore does not know — a made-up name, or
// "grid", "kdtree" and "mtree", the kinds the R*-tree replaced — is refused
// with an error that names every kind there is, so the caller learns what to
// pass. Kind names are matched exactly: "" and "RStar" are as unknown as
// "bogus".
func TestBuildUnknownKind(t *testing.T) {
	for _, kind := range []Kind{"bogus", "grid", "kdtree", "mtree", "", "RStar"} {
		t.Run(fmt.Sprintf("%q", kind), func(t *testing.T) {
			_, err := Build(kind, []geom.Point{{1, 2}}, geom.Euclidean{}, 1)
			if err == nil {
				t.Fatal("accepted")
			}
			for _, k := range Kinds() {
				if !strings.Contains(err.Error(), string(k)) {
					t.Errorf("error %q does not name kind %s", err, k)
				}
			}
		})
	}
}

func TestEmptyIndexes(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			idx, err := Build(kind, nil, geom.Euclidean{}, 1)
			if err != nil {
				t.Fatalf("Build on empty: %v", err)
			}
			if idx.Len() != 0 || idx.NumLeaves() != 0 {
				t.Errorf("Len = %d, NumLeaves = %d", idx.Len(), idx.NumLeaves())
			}
		})
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 10000, 2)
	for _, kind := range Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(kind, pts, geom.Euclidean{}, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
