package index_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// pointCloud generates a random point set with a query id and radius,
// covering clustered and degenerate layouts.
type pointCloud struct {
	pts   []geom.Point
	query int
	eps   float64
}

func (pointCloud) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(size*4 + 1)
	dim := 1 + rng.Intn(3)
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			switch rng.Intn(3) {
			case 0: // clustered around a few centers
				p[d] = float64(rng.Intn(3))*5 + rng.NormFloat64()*0.3
			case 1: // duplicates / grid-aligned values
				p[d] = float64(rng.Intn(4))
			default:
				p[d] = rng.NormFloat64() * 10
			}
		}
		pts[i] = p
	}
	return reflect.ValueOf(pointCloud{pts: pts, query: rng.Intn(n + 1), eps: rng.Float64() * 5})
}

// Property (quick variant of the oracle test): over every index kind, an
// id's neighbourhood is exactly the index-free oracle's on arbitrary
// generated clouds, including duplicate-heavy and grid-aligned layouts.
func TestQuickNeighboursOracle(t *testing.T) {
	for _, kind := range index.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			f := func(pc pointCloud) bool {
				if len(pc.pts) == 0 {
					return true
				}
				if pc.eps <= 0 {
					pc.eps = 0.5
				}
				idx, err := index.Build(kind, pc.pts, geom.Euclidean{}, pc.eps)
				if err != nil {
					return false
				}
				q := pc.query % len(pc.pts)
				want := oracleRange(pc.pts, pc.pts[q], pc.eps)
				got := dbscan.Neighbours(idx, pc.eps).Of(q, nil)
				slices.Sort(got)
				return slices.Equal(got, want)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: a neighbourhood handed a dirty reused buffer — stale ids in its
// length, spare capacity past it — is the one a nil buffer gets, same ids in
// the same order, for every index kind.
func TestQuickNeighboursReuse(t *testing.T) {
	for _, kind := range index.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			f := func(pc pointCloud) bool {
				if len(pc.pts) == 0 {
					return true
				}
				if pc.eps <= 0 {
					pc.eps = 0.5
				}
				idx, err := index.Build(kind, pc.pts, geom.Euclidean{}, pc.eps)
				if err != nil {
					return false
				}
				q := pc.query % len(pc.pts)
				nb := dbscan.Neighbours(idx, pc.eps)
				fresh := nb.Of(q, nil)
				dirty := append(make([]int, 0, len(pc.pts)+8), 99, 98, 97)
				return slices.Equal(nb.Of(q, dirty), fresh)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}
