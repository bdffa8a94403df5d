package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// quickOpts shrink every experiment so the whole suite stays fast while
// still executing the full pipeline.
func quickOpts() Options {
	return Options{Seed: 7, Scale: 0.05}
}

func cell(t *Table, row int, col string) string {
	for i, c := range t.Columns {
		if c == col {
			return t.Rows[row][i]
		}
	}
	return ""
}

func cellFloat(tb testing.TB, t *Table, row int, col string) float64 {
	tb.Helper()
	s := strings.TrimSuffix(cell(t, row, col), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		tb.Fatalf("cell %s[%d] = %q not numeric: %v", col, row, cell(t, row, col), err)
	}
	return v
}

func TestTableFprint(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"hello"},
	}
	var buf bytes.Buffer
	if err := tbl.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "long-column", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig7bShape(t *testing.T) {
	tbl, err := Fig7b(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Every timing must be positive.
	for r := range tbl.Rows {
		for _, col := range []string{"central[ms]", "dbdc(scor)[ms]", "dbdc(kmeans)[ms]"} {
			if v := cellFloat(t, tbl, r, col); v <= 0 {
				t.Fatalf("row %d %s = %v", r, col, v)
			}
		}
	}
}

// TestFig9Shape runs at full scale, not quickOpts: on 5% of the data one
// representative more or less decides whether two clusters merge at factor 2
// or at 3, and the headline below would be asserted on that accident. The
// whole figure takes about 0.1 s at scale 1.
func TestFig9Shape(t *testing.T) {
	tbl, err := Fig9(Options{Seed: 7, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Qualities are percentages in [0, 100].
	for r := range tbl.Rows {
		for _, col := range tbl.Columns[1:] {
			v := cellFloat(t, tbl, r, col)
			if v < 0 || v > 100 {
				t.Fatalf("%s[%d] = %v out of range", col, r, v)
			}
		}
	}
	// The paper's headline: quality at factor 2 must not be worse than at
	// the extremes under P^II (peak near 2, degradation at the ends).
	// Rows: 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0.
	at2 := cellFloat(t, tbl, 2, "P^II(scor)")
	at8 := cellFloat(t, tbl, 6, "P^II(scor)")
	if at2 < at8 {
		t.Errorf("P^II at factor 2 (%v) below factor 8 (%v)", at2, at8)
	}
}

func TestFig10Shape(t *testing.T) {
	tbl, err := Fig10(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for r := range tbl.Rows {
		if v := cellFloat(t, tbl, r, "local repr.[%]"); v <= 0 || v >= 100 {
			t.Fatalf("repr%% = %v", v)
		}
		for _, col := range []string{"P^I(kmeans)", "P^II(kmeans)", "P^I(scor)", "P^II(scor)"} {
			v := cellFloat(t, tbl, r, col)
			if v < 0 || v > 100 {
				t.Fatalf("%s[%d] = %v", col, r, v)
			}
		}
	}
}

func TestFig11Shape(t *testing.T) {
	tbl, err := Fig11(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	names := []string{cell(tbl, 0, "dataset"), cell(tbl, 1, "dataset"), cell(tbl, 2, "dataset")}
	if names[0] != "A" || names[1] != "B" || names[2] != "C" {
		t.Fatalf("datasets = %v", names)
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"fig7a", "fig7b", "fig8", "fig9", "fig10", "fig11"} {
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%s): %v", id, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

// The headline claim of the paper: on a meaningful cardinality DBDC beats
// central clustering and the quality stays high. This integration test runs
// a mid-size instance end to end (quality only; timing claims live in the
// benchmarks where the full cardinalities run).
func TestHeadlineQualityAtModerateScale(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale integration test")
	}
	opt := Options{Seed: 11, Scale: 1}
	ds := data.DatasetA(8700, opt.Seed)
	central, _, err := runCentral(ds)
	if err != nil {
		t.Fatal(err)
	}
	part, err := randomPartition(ds, 4, opt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range model.Kinds() {
		res, err := runDBDC(ds, part, dbdc.Config{Local: ds.Params, Model: kind, EpsGlobal: 2 * ds.Params.Eps})
		if err != nil {
			t.Fatal(err)
		}
		pi, pii, err := qualities(res.distributed, central.Labels, ds.Params.MinPts)
		if err != nil {
			t.Fatal(err)
		}
		if pi < 0.9 || pii < 0.85 {
			t.Errorf("%s: quality too low: PI=%.3f PII=%.3f", kind, pi, pii)
		}
		// Representative share in the ballpark the paper reports (16-17%);
		// accept a generous band since the data is an analogue.
		if res.repFraction < 0.01 || res.repFraction > 0.40 {
			t.Errorf("%s: representative fraction %.3f out of band", kind, res.repFraction)
		}
	}
}

func TestTransmissionShape(t *testing.T) {
	tbl, err := Transmission(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for r := range tbl.Rows {
		saving := cellFloat(t, tbl, r, "saving")
		if saving <= 1 {
			t.Fatalf("row %d: shipping models costs more than raw data (%vx)", r, saving)
		}
		if up := cellFloat(t, tbl, r, "uplink[B]"); up <= 0 {
			t.Fatalf("row %d: uplink %v", r, up)
		}
	}
}

func TestBaselinesShape(t *testing.T) {
	tbl, err := Baselines(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for r := range tbl.Rows {
		ariKM := cellFloat(t, tbl, r, "ARI(kmeans)")
		ariDBDC := cellFloat(t, tbl, r, "ARI(dbdc)")
		if ariDBDC < ariKM-0.05 {
			t.Errorf("row %d (%s): DBDC (%v) worse than the k-means baseline (%v)",
				r, cell(tbl, r, "dataset"), ariDBDC, ariKM)
		}
	}
	// Data set C contains a ring: k-means must clearly lose there.
	ariKMC := cellFloat(t, tbl, 2, "ARI(kmeans)")
	ariDBDCC := cellFloat(t, tbl, 2, "ARI(dbdc)")
	if ariKMC > ariDBDCC-0.1 {
		t.Errorf("on the ring data set C, k-means ARI %v not clearly below DBDC %v", ariKMC, ariDBDCC)
	}
}

func TestComparisonShape(t *testing.T) {
	tbl, err := Comparison(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for r := 0; r < len(tbl.Rows); r += 3 {
		dbdcARI := cellFloat(t, tbl, r, "ARI vs central")
		dbdcBytes := cellFloat(t, tbl, r, "bytes")
		exactARI := cellFloat(t, tbl, r+1, "ARI vs central")
		exactBytes := cellFloat(t, tbl, r+1, "bytes")
		// The exact comparator must be exact.
		if exactARI < 0.999 {
			t.Errorf("row %d: pdbscan ARI %v != 1", r+1, exactARI)
		}
		// DBDC's uplink (models only) must be far below everyone's raw
		// costs; total bytes can swing either way depending on the
		// representative count (see the table notes).
		if exactBytes <= 0 || dbdcBytes <= 0 {
			t.Errorf("dataset %s: missing byte accounting", cell(tbl, r, "dataset"))
		}
		if dbdcARI <= 0 {
			t.Errorf("row %d: DBDC ARI %v", r, dbdcARI)
		}
	}
}

func TestDimensionsShape(t *testing.T) {
	tbl, err := Dimensions(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for r := range tbl.Rows {
		// At the tiny test scale the per-site clusters are too sparse for
		// meaningful quality; assert well-formedness, the full-scale values
		// live in EXPERIMENTS.md.
		if v := cellFloat(t, tbl, r, "P^II vs central"); v < 0 || v > 100 {
			t.Errorf("dim %s: P^II out of range: %v", cell(tbl, r, "dim"), v)
		}
		if v := cellFloat(t, tbl, r, "central[ms]"); v <= 0 {
			t.Errorf("dim %s: central time %v", cell(tbl, r, "dim"), v)
		}
		for _, col := range []string{"ARI(central,truth)", "ARI(dbdc,truth)"} {
			if v := cellFloat(t, tbl, r, col); v < -0.5 || v > 1 {
				t.Errorf("dim %s: %s = %v", cell(tbl, r, "dim"), col, v)
			}
		}
	}
}

func TestOpticsSweepShape(t *testing.T) {
	tbl, err := OpticsSweep(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for r := range tbl.Rows {
		a := cellFloat(t, tbl, r, "clusters(dbscan)")
		b := cellFloat(t, tbl, r, "clusters(optics)")
		if a != b {
			t.Errorf("cut %s: cluster counts differ: dbscan %v vs optics %v",
				cell(tbl, r, "eps_global/eps_local"), a, b)
		}
	}
}

func TestPartitionsShape(t *testing.T) {
	tbl, err := Partitions(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for r := range tbl.Rows {
		for _, col := range []string{"P^I", "P^II", "repr.[%]"} {
			v := cellFloat(t, tbl, r, col)
			if v < 0 || v > 100 {
				t.Fatalf("%s[%d] = %v", col, r, v)
			}
		}
	}
}

func TestFprintMarkdown(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"n"},
	}
	var buf bytes.Buffer
	if err := tbl.FprintMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### x — demo", "| a | b |", "| --- | --- |", "| 1 | 2 |", "*n*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestIncrementalShape(t *testing.T) {
	tbl, err := Incremental(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var incTotal, naiveTotal float64
	for r := range tbl.Rows {
		incTotal += cellFloat(t, tbl, r, "bytes(incremental)")
		naiveTotal += cellFloat(t, tbl, r, "bytes(naive)")
	}
	if incTotal > naiveTotal {
		t.Fatalf("incremental policy (%v B) costs more than naive (%v B)", incTotal, naiveTotal)
	}
	// The first epoch must upload everywhere (no snapshot yet).
	if got := cell(tbl, 0, "uploads(incremental)"); got != "4/4" {
		t.Fatalf("epoch 1 uploads = %s", got)
	}
}

func TestBudgetsShape(t *testing.T) {
	tbl, err := Budgets(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(budgetSweep); len(tbl.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), want)
	}
	for r := range tbl.Rows {
		budget := cell(tbl, r, "budget")
		frac := cellFloat(t, tbl, r, "of-unbudgeted")
		if budget == "off" {
			// The unbudgeted row is its own baseline by construction.
			if frac != 100.0 {
				t.Fatalf("row %d: unbudgeted uplink fraction %v != 100", r, frac)
			}
		} else if frac <= 0 || frac > 100 {
			t.Fatalf("row %d (budget %s): uplink fraction %v outside (0, 100]", r, budget, frac)
		}
		for _, col := range []string{"P^I", "P^II"} {
			if v := cellFloat(t, tbl, r, col); v < 0 || v > 100 {
				t.Fatalf("row %d: %s = %v", r, col, v)
			}
		}
		if v := cellFloat(t, tbl, r, "coverage"); v < 0 || v > 1 {
			t.Fatalf("row %d: coverage %v outside [0, 1]", r, v)
		}
	}
	// Within a dataset, tightening the budget must never increase the
	// uplink: each row's byte count is bounded by the row above it.
	for r := 1; r < len(tbl.Rows); r++ {
		if cell(tbl, r, "dataset") != cell(tbl, r-1, "dataset") {
			continue
		}
		if cellFloat(t, tbl, r, "uplink[B]") > cellFloat(t, tbl, r-1, "uplink[B]") {
			t.Fatalf("row %d: uplink grew as the budget tightened (%s > %s)",
				r, cell(tbl, r, "uplink[B]"), cell(tbl, r-1, "uplink[B]"))
		}
	}
}
