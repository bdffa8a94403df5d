package dbdc

import (
	"fmt"
	"math"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

// RepSelector is the deterministic representative-choice rule of Section 7
// — "o ∈ N_{ε_r}(r) ⇒ o takes r's global cluster id, the nearest r wins" —
// packaged as a reusable component. Relabel (step 4 of a DBDC round) and the
// online classifier of internal/serve both go through this one type, so the
// relabeling of training points and the serving-time classification of
// arbitrary points cannot drift apart.
//
// The rule, spelled out:
//
//  1. Representative r covers o iff d²(o, r) ≤ ε_r², both sides computed in
//     floating point: d² on the strided store kernels, ε_r² as ε_r·ε_r.
//  2. Among the covering representatives the nearest one wins; exact
//     distance ties break toward the lowest representative index in
//     GlobalModel.Reps order.
//  3. No covering representative ⇒ noise.
//
// The rule is answered from a coverage grid built once per model. The grid
// spans the union of the representatives' ε_r-boxes over at most two
// coordinates: all of them for a 1-d or 2-d model, else the two along which
// the representatives spread widest. Each cell lists, in ascending
// representative index, the representatives whose box — widened by a
// rounding margin — meets the cell, and carries one verdict:
//
//   - noise: the cell lists no representative;
//   - covered: every listed representative has one global cluster, and the
//     whole cell, widened by the margin, lies inside the ε_r-ball of one of
//     them (possible only when the grid spans every coordinate);
//   - check: the nearest-wins fold over the cell's list.
//
// A query is one cell lookup; only check cells touch a distance kernel.
// The lists are complete: every point a representative covers lies inside
// its widened box, and the cell a point falls in is a monotone function of
// its coordinates, so that cell is one the box meets. So a check cell's fold
// sees every representative that can cover the point, and a covered cell's
// answer is the cluster of all of them. FuzzRepSelector holds SelectInto to
// a loop over every representative, and under the dbdc_debugchecks build
// every answer is re-derived that way.
//
// RelabelSite labels a site's objects through Relabel, so step 4 of a round
// has this one implementation too; TestRelabelSiteMatchesPerPoint holds it
// to the loop over every representative on whole rounds.
//
// A RepSelector is immutable after construction and safe for concurrent
// readers.
type RepSelector struct {
	reps  []model.GlobalRepresentative
	epsSq []float64 // per-representative ε_r², index-aligned with reps
	dim   int
	// store holds the representative points in one flat backing array,
	// row-aligned with reps; check cells fold over DistanceSqBatch on it.
	store *geom.Store

	// The coverage grid: cell c is row-major over axes (none: the one cell
	// of a model the grid cannot span), its verdict is verdict[c] and its
	// list is list[start[c]:start[c+1]].
	axes    []gridAxis
	verdict []cluster.ID // a covered cell's cluster, cellNoise or cellCheck
	start   []int32
	list    []int
}

// gridAxis is one coordinate the coverage grid spans: the closed range
// [lo, hi] cut into n cells, inv = n / (hi − lo).
type gridAxis struct {
	coord  int
	lo, hi float64
	inv    float64
	n      int
	width  float64 // hi − lo
}

const (
	cellNoise = cluster.Noise
	cellCheck = cluster.Noise - 1

	// gridSlack is the relative rounding margin of the grid. The floating
	// point steps between a coordinate and its cell, or between a squared
	// distance and ε_r², err by a few units of 2⁻⁵³; the margin is
	// thousands of times that, and costs nothing but a sliver of cells that
	// fold where they could have been covered.
	gridSlack = 1e-12
	// gridTiny is the absolute margin for squares below the normal range:
	// a d² or ε_r² that underflows errs by up to 2⁻¹⁰⁷⁴, i.e. a distance by
	// about 1.6e-162.
	gridTiny = 1e-160
	// cellSide is the least cell width, in units of max ε_r, and
	// cellsPerRep caps the grid at this many cells per representative. The
	// side trades lookups for build work: on classify-swap's model, cells of
	// max ε_r/2 list ≈ 24 representatives each instead of ≈ 13, and make a
	// lookup ≈ 15% cheaper and a build ≈ 1.5× dearer.
	cellSide    = 0.75
	cellsPerRep = 64
)

// NewRepSelector builds the selector and its coverage grid for a global
// model. The empty global model — the all-noise sentinel — yields a
// selector that classifies everything as noise; a structurally broken model
// (e.g. representatives of mixed dimensionality) returns an error.
func NewRepSelector(global *model.GlobalModel) (*RepSelector, error) {
	s := &RepSelector{}
	if global.Empty() {
		return s, nil
	}
	dim, err := repDim(global)
	if err != nil {
		return nil, err
	}
	s.dim = dim
	s.reps = global.Reps
	s.epsSq = make([]float64, len(global.Reps))
	st := geom.NewStore(dim, len(global.Reps))
	for i, r := range global.Reps {
		st.Append(r.Point)
		s.epsSq[i] = r.Eps * r.Eps
	}
	s.store = st
	s.buildGrid()
	return s, nil
}

// repDim returns the dimensionality the representatives of a non-empty model
// share, or the error that names the first one that deviates — validated here
// so library callers are told which representative is broken.
func repDim(global *model.GlobalModel) (int, error) {
	dim := global.Reps[0].Point.Dim()
	for i, r := range global.Reps {
		if r.Point.Dim() != dim {
			return 0, fmt.Errorf("dbdc: relabel: indexing %d global representatives: representative %d has dimension %d, want %d",
				len(global.Reps), i, r.Point.Dim(), dim)
		}
	}
	return dim, nil
}

// buildGrid fills the coverage grid. A model whose boxes the grid cannot
// span — a non-finite coordinate or ε_r², or a span beyond the float range;
// of these Validate lets through only an ε_r above ≈ 1.3e154, whose square
// overflows — gets the grid of one check cell listing every representative:
// the rule by brute force.
func (s *RepSelector) buildGrid() {
	n := len(s.reps)
	coords := s.store.Coords()
	axes := make([]gridAxis, min(s.dim, 2)) // the first min(dim, 2) coordinates
	for k := range axes {
		axes[k] = gridAxis{coord: k, lo: math.Inf(1), hi: math.Inf(-1)}
	}
	// box[4i+2k], box[4i+2k+1] bound representative i's box along axis k:
	// ε_r plus the margin by which a covered point's coordinate can exceed
	// it, rounded outward.
	box := make([]float64, 4*n)
	maxHalf := 0.0
	for i, r := range s.reps {
		if math.IsInf(s.epsSq[i], 0) || math.IsNaN(s.epsSq[i]) || !r.Point.IsFinite() {
			s.scanGrid()
			return
		}
		half := math.Abs(r.Eps)*(1+gridSlack) + gridTiny
		for k := range axes {
			a, x := &axes[k], coords[i*s.dim+k]
			lo, hi := math.Nextafter(x-half, math.Inf(-1)), math.Nextafter(x+half, math.Inf(1))
			box[4*i+2*k], box[4*i+2*k+1] = lo, hi
			maxHalf = max(maxHalf, (hi-lo)/2)
			if lo < a.lo {
				a.lo = lo
			}
			if hi > a.hi {
				a.hi = hi
			}
		}
	}
	for k := range axes {
		if axes[k].width = axes[k].hi - axes[k].lo; math.IsInf(axes[k].width, 0) {
			s.scanGrid()
			return
		}
	}

	// Cells at least cellSide times the widest box's half-width (≈ max ε_r)
	// wide, widened until there are at most cellsPerRep per representative.
	// A box is then under three cells wide and meets at most four along an
	// axis, five if rounding moves an end.
	maxCells := float64(cellsPerRep * n)
	side := maxHalf * cellSide
	for _, a := range axes {
		side = max(side, a.width/maxCells)
	}
	count := func(side float64) float64 {
		c := 1.0
		for _, a := range axes {
			c *= max(1, math.Floor(a.width/side))
		}
		return c
	}
	for count(side) > maxCells {
		side *= 1.25
	}
	cells := 1
	for k := range axes {
		a := &axes[k]
		a.n = int(max(1, math.Floor(a.width/side)))
		a.inv = float64(a.n) / a.width // finite: every box is over 1e-160 wide
		cells *= a.n
	}
	s.axes = axes

	// span[4i:4i+4] are the first and last row and column representative i's
	// box meets; a 1-d grid is a 2-d one of one column.
	cols := 1
	if len(axes) == 2 {
		cols = axes[1].n
	}
	span := make([]int32, 4*n)
	for i := range n {
		for k := range axes {
			span[4*i+2*k] = int32(axes[k].cell(box[4*i+2*k]))
			span[4*i+2*k+1] = int32(axes[k].cell(box[4*i+2*k+1]))
		}
	}
	// List every representative in the cells its box meets: count into
	// start[c], sum so start[c] ends cell c, then fill each cell back to
	// front in descending representative order, so every list ascends and
	// start[c] ends up where cell c begins.
	start := make([]int32, cells+1)
	for i := range n {
		r0, r1, c0, c1 := int(span[4*i]), int(span[4*i+1]), int(span[4*i+2]), int(span[4*i+3])
		for r := r0; r <= r1; r++ {
			for c := r*cols + c0; c <= r*cols+c1; c++ {
				start[c]++
			}
		}
	}
	verdict := make([]cluster.ID, cells)
	for c := range cells {
		start[c+1] += start[c]
		verdict[c] = cellNoise
	}
	list := make([]int, start[cells])

	// The fill also decides the verdicts. A cell's verdict is the cluster of
	// the representatives in it until one of another cluster joins. It is
	// covered when one representative's ε_r-ball holds the cell's farthest
	// corner, the cell widened by the margin that covers the rounding of the
	// lookup, with room to spare for the rounding of d².
	var lo, hi [2][]float64 // cell i along axis k, widened: [lo[k][i], hi[k][i]]
	for k, a := range axes {
		margin := gridSlack*(a.width+math.Abs(a.lo)+math.Abs(a.hi)) + gridTiny
		lo[k], hi[k] = make([]float64, a.n), make([]float64, a.n)
		for i := range a.n {
			lo[k][i] = a.lo + float64(i)*a.width/float64(a.n) - margin
			hi[k][i] = a.lo + float64(i+1)*a.width/float64(a.n) + margin
		}
	}
	// far is the squared distance from x to the farther end of [lo, hi].
	far := func(lo, hi, x float64) float64 {
		d0, d1 := math.Abs(lo-x), math.Abs(hi-x)
		if d0 > d1 {
			return d0 * d0
		}
		return d1 * d1
	}
	exact := len(axes) == s.dim
	covered := make([]bool, cells)
	var farCol []float64
	for i := n - 1; i >= 0; i-- {
		r0, r1, c0, c1 := int(span[4*i]), int(span[4*i+1]), int(span[4*i+2]), int(span[4*i+3])
		r := &s.reps[i]
		id := r.GlobalCluster
		if id < 0 {
			id = cellCheck
		}
		bound := math.Inf(-1) // no cell is covered
		if exact {
			bound = s.epsSq[i]*(1-gridSlack) - gridTiny*gridTiny
		}
		farCol = farCol[:0]
		for c := c0; c <= c1; c++ {
			if exact && len(axes) == 2 {
				farCol = append(farCol, far(lo[1][c], hi[1][c], r.Point[1]))
			} else {
				farCol = append(farCol, 0)
			}
		}
		for row := r0; row <= r1; row++ {
			farRow := 0.0
			if exact {
				farRow = far(lo[0][row], hi[0][row], r.Point[0])
			}
			for c := c0; c <= c1; c++ {
				cell := row*cols + c
				start[cell]--
				list[start[cell]] = i
				switch v := verdict[cell]; {
				case v == cellNoise:
					verdict[cell] = id
				case v != id:
					verdict[cell] = cellCheck
				}
				if farRow+farCol[c-c0] <= bound {
					covered[cell] = true
				}
			}
		}
	}
	for c, cov := range covered {
		if !cov && verdict[c] >= 0 {
			verdict[c] = cellCheck
		}
	}
	s.start, s.list, s.verdict = start, list, verdict
}

// scanGrid makes the grid one check cell that lists every representative.
func (s *RepSelector) scanGrid() {
	s.axes = nil
	s.start = []int32{0, int32(len(s.reps))}
	s.list = make([]int, len(s.reps))
	for i := range s.list {
		s.list[i] = i
	}
	s.verdict = []cluster.ID{cellCheck}
}

// cell maps a coordinate in [lo, hi] to its cell along the axis. It is
// monotone in x, which is what makes a box's cells the cells of its points.
func (a *gridAxis) cell(x float64) int {
	if i := int((x - a.lo) * a.inv); i < a.n {
		return i
	}
	return a.n - 1
}

// Empty reports whether the selector was built from the all-noise sentinel
// (every classification returns noise).
func (s *RepSelector) Empty() bool { return s.store == nil }

// Dim returns the dimensionality of the representative points, 0 for the
// empty selector.
func (s *RepSelector) Dim() int { return s.dim }

// NumReps returns the number of representatives behind the selector.
func (s *RepSelector) NumReps() int { return len(s.reps) }

// RepScratch holds the reusable distance block of a check cell's fold.
// Zero value ready to use; one instance per goroutine (Classifier pools
// them, Relabel uses one for its single loop).
type RepScratch struct {
	dist []float64
}

// SelectInto classifies one point under the representative-choice rule,
// reusing the scratch buffer across calls: one cell lookup, and for a check
// cell the nearest-wins fold over its list on the batch kernel. The query
// point must have the selector's dimensionality: this is the trusted hot
// path, and serve.Classifier validates untrusted points before they reach
// it. A point with a NaN coordinate, or outside the grid, is covered by
// nothing and is noise.
func (s *RepSelector) SelectInto(p geom.Point, sc *RepScratch) cluster.ID {
	id := s.selectCell(p, sc)
	if checkSelect != nil {
		checkSelect(s, p, id)
	}
	return id
}

func (s *RepSelector) selectCell(p geom.Point, sc *RepScratch) cluster.ID {
	if s.store == nil {
		return cluster.Noise
	}
	c := 0
	for k := range s.axes {
		a := &s.axes[k]
		x := p[a.coord]
		if !(x >= a.lo && x <= a.hi) {
			return cluster.Noise
		}
		c = c*a.n + a.cell(x)
	}
	if v := s.verdict[c]; v != cellCheck {
		return v
	}
	cand := s.list[s.start[c]:s.start[c+1]]
	if cap(sc.dist) < len(cand) {
		sc.dist = make([]float64, len(cand)+16)
	}
	best, bestSq := cluster.Noise, 0.0
	found := false
	for k, d2 := range s.store.DistanceSqBatch(p, cand, sc.dist[:len(cand)]) {
		ri := cand[k]
		if d2 <= s.epsSq[ri] && (!found || d2 < bestSq) {
			best, bestSq, found = s.reps[ri].GlobalCluster, d2, true
		}
	}
	return best
}

// checkSelect is set by the dbdc_debugchecks build (checks_debug.go).
var checkSelect func(s *RepSelector, p geom.Point, got cluster.ID)
