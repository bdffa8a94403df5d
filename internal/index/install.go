package index

import (
	"errors"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index/mtree"
	"github.com/dbdc-go/dbdc/internal/index/rstar"
)

// The tree indexes live in subpackages; register their builders here so
// Build can construct every kind by name. The R*-tree prunes with Euclidean
// bounding-box bounds only, and Euclidean builds are store-backed, so it has
// a store builder and no slice builder.
func init() {
	RegisterBuilder(KindMTree, func(pts []geom.Point, m geom.Metric, _ float64) (Index, error) {
		return mtree.New(pts, m)
	})
	RegisterStoreBuilder(KindRStar, func(st *geom.Store, m geom.Metric, eps float64) (Index, error) {
		if !isEuclidean(m) {
			return nil, errors.New("index: the R*-tree supports only the Euclidean metric; use the M-tree for general metrics")
		}
		return rstar.NewBulkStore(st, rstar.DefaultMaxEntries, eps)
	})
	RegisterStoreBuilder(KindMTree, func(st *geom.Store, m geom.Metric, _ float64) (Index, error) {
		return mtree.NewFromStore(st, m)
	})
}
