//go:build dbdc_debugchecks

package dbdc

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
)

// The debug-checks build re-derives every SelectInto answer by a loop over
// all representatives and panics unless the coverage grid gave the same.
func init() {
	checkSelect = func(s *RepSelector, p geom.Point, got cluster.ID) {
		if want := s.selectScan(p); got != want {
			panic(fmt.Sprintf("dbdc: RepSelector labels %v as %v, a scan over every representative as %v", p, got, want))
		}
	}
}

// selectScan is the rule by brute force: every representative, in index
// order, the nearest covering one winning and ties going to the lowest.
func (s *RepSelector) selectScan(p geom.Point) cluster.ID {
	best, bestSq := cluster.Noise, 0.0
	found := false
	for ri := range s.reps {
		d2 := s.store.DistanceSqTo(ri, p)
		if d2 <= s.epsSq[ri] && (!found || d2 < bestSq) {
			best, bestSq, found = s.reps[ri].GlobalCluster, d2, true
		}
	}
	return best
}
