package index

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// pointCloud generates a random point set with a query point and radius,
// covering clustered and degenerate layouts.
type pointCloud struct {
	pts   []geom.Point
	query geom.Point
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
	query := make(geom.Point, dim)
	for d := range query {
		query[d] = rng.NormFloat64() * 8
	}
	return reflect.ValueOf(pointCloud{pts: pts, query: query, eps: rng.Float64() * 5})
}

// Property (quick variant of the oracle test): every index kind returns
// exactly the index-free oracle's ε-neighborhood on arbitrary generated clouds,
// including duplicate-heavy and grid-aligned layouts.
func TestQuickRangeOracle(t *testing.T) {
	f := func(pc pointCloud) bool {
		if pc.eps <= 0 {
			pc.eps = 0.5
		}
		want := map[int]bool{}
		for _, i := range oracleRange(pc.pts, pc.query, pc.eps) {
			want[i] = true
		}
		for _, kind := range Kinds() {
			idx, err := Build(kind, pc.pts, geom.Euclidean{}, pc.eps)
			if err != nil {
				return false
			}
			got := idx.Range(pc.query, pc.eps)
			if len(got) != len(want) {
				return false
			}
			for _, i := range got {
				if !want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: RangeAppend with a dirty reused buffer returns the same result
// as a fresh Range for every buffer-capable index.
func TestQuickRangeAppendReuse(t *testing.T) {
	f := func(pc pointCloud) bool {
		if pc.eps <= 0 {
			pc.eps = 0.5
		}
		dirty := []int{99, 98, 97}
		for _, kind := range []Kind{KindLinear, KindGrid, KindKDTree, KindRStar} {
			idx, err := Build(kind, pc.pts, geom.Euclidean{}, pc.eps)
			if err != nil {
				return false
			}
			fresh := idx.Range(pc.query, pc.eps)
			reused := RangeInto(idx, pc.query, pc.eps, dirty)
			if len(fresh) != len(reused) {
				return false
			}
			seen := map[int]bool{}
			for _, i := range fresh {
				seen[i] = true
			}
			for _, i := range reused {
				if !seen[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
