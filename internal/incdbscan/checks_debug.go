//go:build dbdc_debugchecks

package incdbscan

import (
	"fmt"
	"slices"
	"sync"
)

// rederive is the map walk's buffer, shared by every clusterer, so that the
// check allocates no more than the query it checks.
var rederive struct {
	sync.Mutex
	buf []int
}

// The debug-checks build re-derives every query of a live slot by asking the
// map for each cell of its interval, and panics unless the row of the slot's
// list gave the same ids in the same order.
func init() {
	checkRangeOf = func(g *cells, i int, got []int) {
		rederive.Lock()
		defer rederive.Unlock()
		want := g.rangeAppend(g.rows.Point(i), g.side, rederive.buf)
		rederive.buf = want
		if !slices.Equal(got, want) {
			panic(fmt.Sprintf("incdbscan: the table query of slot %d gave %v, the map walk %v", i, got, want))
		}
	}
}
