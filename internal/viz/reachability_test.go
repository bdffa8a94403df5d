package viz

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/optics"
)

func TestReachabilityPlotValidation(t *testing.T) {
	if _, err := ReachabilityPlot(nil, 10, 10, 0); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReachabilityPlot([]float64{1}, 1, 10, 0); err == nil {
		t.Error("tiny grid accepted")
	}
}

func TestReachabilityPlotBars(t *testing.T) {
	reach := []float64{0.1, 0.1, 0.1, 1.0, 0.1, 0.1}
	out, err := ReachabilityPlot(reach, 6, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // 5 rows + caption
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// The peak column (index 3) must be the only full-height bar.
	top := lines[0]
	if top[3] != '#' {
		t.Fatalf("peak missing in top row: %q", top)
	}
	for c, ch := range top {
		if c != 3 && ch == '#' {
			t.Fatalf("unexpected full-height bar at column %d", c)
		}
	}
}

func TestReachabilityPlotInfinite(t *testing.T) {
	reach := []float64{math.Inf(1), 0.5, 0.5}
	out, err := ReachabilityPlot(reach, 3, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "!") {
		t.Fatalf("undefined reachability not marked:\n%s", out)
	}
}

func TestReachabilityPlotCutLine(t *testing.T) {
	reach := []float64{0.2, 0.2, 0.9, 0.2}
	out, err := ReachabilityPlot(reach, 4, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("cut line missing:\n%s", out)
	}
	if !strings.Contains(out, "cut at 0.5") {
		t.Fatalf("caption missing cut:\n%s", out)
	}
}

func TestReachabilityPlotDownsampling(t *testing.T) {
	// 1000 values into 20 columns must keep the single peak visible.
	reach := make([]float64, 1000)
	for i := range reach {
		reach[i] = 0.1
	}
	reach[500] = 5.0
	out, err := ReachabilityPlot(reach, 20, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Split(out, "\n")[0], "#") {
		t.Fatalf("downsampling lost the peak:\n%s", out)
	}
}

// Integration: the plot of a real OPTICS run over two separated blobs
// shows exactly one interior peak reaching the top half.
func TestReachabilityPlotFromOPTICS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pts []geom.Point
	for i := 0; i < 120; i++ {
		pts = append(pts, geom.Point{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3})
	}
	for i := 0; i < 120; i++ {
		pts = append(pts, geom.Point{20 + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3})
	}
	lin, err := index.Build(index.KindLinear, pts, geom.Euclidean{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := optics.Run(lin, dbscan.Params{Eps: 50, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ReachabilityPlot(res.Reachabilities(), 60, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	topHalf := strings.Join(strings.Split(out, "\n")[:5], "")
	bars := strings.Count(topHalf, "#") + strings.Count(topHalf, "!")
	// The first (undefined) column and the inter-blob jump; everything
	// else stays in the valley.
	if bars < 2 || bars > 14 {
		t.Fatalf("top half shows %d bar cells, want a small number:\n%s", bars, out)
	}
}
