package rstar_test

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index/rstar"
)

// roundBulkSite is site 0 of the benchmark's round-bulk workload (32 000 rows
// dealt round-robin to two sites) — the 16 000-row store the claimed metric
// builds its R*-tree over.
func roundBulkSite(seed int64) *geom.Store {
	all := data.RoundBulk(32000, seed).Store
	site := geom.NewStore(2, all.Len()/2)
	for i := 0; i < all.Len(); i += 2 {
		site.Append(all.Point(i))
	}
	return site
}

// randomStore draws n dim-d rows; a positive lattice snaps every coordinate
// to an integer in [0, lattice), which makes the STR sort keys tie heavily.
func randomStore(seed int64, n, dim, lattice int) *geom.Store {
	rng := rand.New(rand.NewSource(seed))
	st := geom.NewStore(dim, n)
	for i := 0; i < n; i++ {
		row := st.AppendZero()
		for d := range row {
			if lattice > 0 {
				row[d] = float64(rng.Intn(lattice))
			} else {
				row[d] = rng.NormFloat64() * 5
			}
		}
	}
	return st
}

// TestBulkLayoutIdentity pins the STR bulk layout: any build that passes tiles
// every input into the same nodes, in the same order, under the same
// rectangles. Ten digests were recorded from the pointer-node build that sorted
// 64-byte entries with sort.Slice (commit b546cd7) and have not moved since:
// not under the radix sort, and not under the integer slab count, none of these
// inputs having a perfect-power page count at any level (157 pages in 3-d,
// 125 → 63 → 32 → … over eight axes in 8-d). The two lattice rows, the only
// ones with tied keys, were re-pinned once, to the rule DESIGN.md §1 states —
// ascending centre key, ties in arrival order (TestTileOrderIsStable) — where
// they used to record what pdqsort happened to do with equal keys.
func TestBulkLayoutIdentity(t *testing.T) {
	abc := data.ABC(1)
	cases := []struct {
		name     string
		st       *geom.Store
		digest   string
		perLevel []int
	}{
		{"datasetA", abc[0].Store,
			"00c29c5789aaf3d31eb07c5708135e3547807c7f765793e3d70efc35f5703570", []int{1, 9, 272}},
		{"datasetB", abc[1].Store,
			"7989bb48879fd93f59c4634f16fef2662de586a70a64c0a18eb37ebe2cb785e3", []int{1, 6, 132}},
		{"datasetC", abc[2].Store,
			"a793346b0141ced096a766bca93f48e6979f171038a6b9dbef520683f009d49b", []int{1, 2, 36}},
		{"round-bulk", roundBulkSite(1),
			"2f83c2e3912b3b79aaf475a5a928fcb2ad658c24bad390c065611744dcd2b2f6", []int{1, 16, 506}},
		{"lattice-3000", randomStore(2, 3000, 2, 20),
			"9835964252ef69e68c6485ff99cf1e40b36820e8b39f70b86eb3dbb96a97bc1f", []int{1, 4, 100}}, // ties in arrival order
		{"lattice-40000", randomStore(8, 40000, 2, 64),
			"b31af1c67dc6741e393c7ed462a62316808bf4d0c286433dc823e07c79e9062c", []int{1, 2, 42, 1259}}, // four levels; ties in arrival order
		{"3d", randomStore(3, 5000, 3, 0),
			"e24c70f6171150da6a17494c8927637e83cd817489d9631fef24b8c70bad8176", []int{1, 8, 180}},
		{"8d", randomStore(4, 4000, 8, 0),
			"5603967930ce80a567b89182ef071462f40d78c97a78c1d795d98db8cf95cd01", []int{1, 4, 128}},
		{"n=0", geom.NewStore(2, 0),
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", nil},
		{"n=1", randomStore(5, 1, 2, 0),
			"87d82d155685fda42f606911efa50ac195bef4be188fcd1ecdb773d60e88ae5f", []int{1}},
		{"n=32", randomStore(6, 32, 2, 0),
			"85edd524f116b7db88aed8245ecf2be4d6c6487363bf8af3864e7dcd8d311583", []int{1}},
		{"n=33", randomStore(7, 33, 2, 0),
			"700e7805f97c591c6887e7bed54f88c7f82fa29f0b0fd9249554b7192e8014cd", []int{1, 2}},
	}
	for _, c := range cases {
		tr, err := rstar.NewBulkStore(c.st, rstar.DefaultMaxEntries)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		digest, perLevel := rstar.LayoutDigest(tr)
		if digest != c.digest || !reflect.DeepEqual(perLevel, c.perLevel) {
			t.Errorf("%s: layout %q, %#v, recorded %q, %#v", c.name, digest, perLevel, c.digest, c.perLevel)
		}
	}
}
