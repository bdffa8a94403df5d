package index_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// TestStaticRangeOrderIdentity pins the neighbour lists of every static tree
// kind BuildStore makes — ids and order — on data set A and a 3-d random
// store: one SHA-256 per kind over RangeAppend of every indexed point at 0.5,
// 1 and 2 times the radius the index was built for. The digest was recorded at
// commit 754e8f5, before the bulk R*-tree was reduced to a permutation,
// spans and a descent; a kind that passes returns what it returned then, in
// the order it returned it.
func TestStaticRangeOrderIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cube := geom.NewStore(3, 3000)
	for i := 0; i < 3000; i++ {
		cube.AppendCoords(rng.NormFloat64()*5, rng.NormFloat64()*5, rng.NormFloat64()*5)
	}
	a := data.ABC(1)[0]
	stores := []struct {
		st  *geom.Store
		eps float64
	}{{a.Store, a.Params.Eps}, {cube, 1.5}}
	recorded := map[index.Kind]string{
		index.KindRStar: "8f98e470e3f99c42cb7d0a1e0ec0c974ba20770d04595e387e8a1f4fe0d3559e",
	}
	for kind, want := range recorded {
		h := sha256.New()
		var buf []int
		var word [8]byte
		put := func(v int) {
			binary.LittleEndian.PutUint64(word[:], uint64(v))
			h.Write(word[:])
		}
		for _, s := range stores {
			idx, err := index.BuildStore(kind, s.st, geom.Euclidean{}, s.eps)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			for _, f := range []float64{0.5, 1, 2} {
				for i := 0; i < s.st.Len(); i++ {
					buf = idx.RangeAppend(idx.Point(i), f*s.eps, buf)
					put(len(buf))
					for _, id := range buf {
						put(id)
					}
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: neighbour lists digest %s, recorded %s", kind, got, want)
		}
	}
}
