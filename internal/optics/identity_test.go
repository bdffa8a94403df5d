package optics

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// TestOrderingIdentity pins the cluster ordering of data sets A, B and C
// (seed 1, each at its own Eps and MinPts): one SHA-256 per data set over
// each entry's object id and the bits of its reachability and core distance,
// the same from every index kind. The digests were recorded at commit
// 40ce6b9, when Run took its distances from the index's metric; Run now takes
// them as the square root of the store kernel's squared distance, and an
// ordering that passes is the one it was then, bit for bit.
func TestOrderingIdentity(t *testing.T) {
	recorded := map[string]string{
		"A": "d265d9c15d069d0191f986cf6879c1fdc3f6c2431c1a2972070b6cbac7c4077a",
		"B": "5e49f3976722f17b08294fc4348737a4a259ccb2a3e1c2d4f4c3edb687c86f8a",
		"C": "eb8c10ba264ae2c3c46c5e42e08b4d15a781d529f8f285ef91159c8a6b9504e9",
	}
	for _, ds := range data.ABC(1) {
		for _, kind := range index.Kinds() {
			t.Run(ds.Name+"/"+string(kind), func(t *testing.T) {
				idx, err := index.BuildStore(kind, ds.Store, geom.Euclidean{}, ds.Params.Eps)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(idx, ds.Params)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				var word [8]byte
				put := func(v uint64) {
					binary.LittleEndian.PutUint64(word[:], v)
					h.Write(word[:])
				}
				for _, e := range res.Order {
					put(uint64(e.Object))
					put(math.Float64bits(e.Reachability))
					put(math.Float64bits(e.CoreDist))
				}
				if got, want := hex.EncodeToString(h.Sum(nil)), recorded[ds.Name]; got != want {
					t.Errorf("ordering digest %s, recorded %s", got, want)
				}
			})
		}
	}
}
