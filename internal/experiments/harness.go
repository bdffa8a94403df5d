// Package experiments regenerates every table and figure of the DBDC
// paper's evaluation (Section 9). Each Fig* function produces a Table whose
// rows correspond to the series the paper plots; cmd/experiments prints
// them and EXPERIMENTS.md records the paper-versus-measured comparison.
//
// Like the paper, the distributed runtime is reported as
// max(local clustering times) + global clustering time: the local runs are
// executed (and timed) independently, mirroring sites that work in
// parallel, while absolute numbers differ from the 2004 Pentium III
// hardware, the shapes are what the harness reproduces.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/quality"
)

// Options configure an experiment run.
type Options struct {
	// Seed drives all data generation and partitioning.
	Seed int64
	// Scale in (0, 1] shrinks the cardinalities so test suites can exercise
	// every experiment quickly; cmd/experiments uses 1.0.
	Scale float64
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 2004 // EDBT 2004
	}
	return o
}

func (o Options) scaled(n int) int {
	s := int(float64(n) * o.Scale)
	if s < 100 {
		s = 100
	}
	return s
}

// Table is a printable experiment result.
type Table struct {
	ID      string // e.g. "fig7a"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.Join(parts, "  ")
	}
	fmt.Fprintln(w, line(t.Columns))
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// FprintMarkdown renders the table as GitHub-flavoured markdown, the
// format EXPERIMENTS.md embeds.
func (t *Table) FprintMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "*%s*\n\n", n)
	}
	return nil
}

// pipelineResult bundles everything one DBDC execution yields for the
// experiment metrics.
type pipelineResult struct {
	run *dbdc.Result
	// distributed holds the global labeling rearranged into data set order.
	distributed cluster.Labeling
	// distributedTime is max(local)+global, the paper's runtime measure.
	distributedTime time.Duration
	// repFraction is the representative count over the object count.
	repFraction float64
}

// runDBDC executes the full DBDC pipeline over the sites of part under cfg
// and rearranges the global labeling into data set order. The sites run one
// at a time — the paper's timing methodology, max(local) + global, so
// per-site durations stay free of scheduler contention on the experiment
// host.
func runDBDC(ds data.Dataset, part *data.Partition, cfg dbdc.Config) (*pipelineResult, error) {
	sitePts := part.Extract(ds.Points)
	sites := make([]dbdc.Site, len(sitePts))
	for s := range sites {
		sites[s] = dbdc.Site{ID: fmt.Sprintf("site-%02d", s), Points: sitePts[s]}
	}
	cfg.Sequential = true
	run, err := dbdc.Run(sites, cfg)
	if err != nil {
		return nil, err
	}
	perSite := make([][]cluster.ID, len(sites))
	for s := range sites {
		perSite[s] = run.Sites[sites[s].ID].Labels
	}
	distributed, err := data.Assemble(part, perSite, len(ds.Points))
	if err != nil {
		return nil, err
	}
	return &pipelineResult{
		run:             run,
		distributed:     distributed,
		distributedTime: run.DistributedDuration(),
		repFraction:     float64(run.TotalRepresentatives()) / float64(len(ds.Points)),
	}, nil
}

// randomPartition is the layout of the paper's experiments: the data set
// spread over k sites uniformly at random.
func randomPartition(ds data.Dataset, k int, opt Options) (*data.Partition, error) {
	return data.PartitionRandom(len(ds.Points), k, rand.New(rand.NewSource(opt.Seed+1)))
}

// runCentral executes the reference clustering of the whole data set on an
// R*-tree.
func runCentral(ds data.Dataset) (*dbscan.Result, time.Duration, error) {
	start := time.Now()
	idx, err := index.Build(index.KindRStar, ds.Points, geom.Euclidean{}, ds.Params.Eps)
	if err != nil {
		return nil, 0, err
	}
	res, err := dbscan.Run(idx, ds.Params, dbscan.Options{})
	if err != nil {
		return nil, 0, err
	}
	return res, time.Since(start), nil
}

// qualities computes Q_DBDC under both object quality functions, with
// qp = MinPts as the paper recommends.
func qualities(distributed, central cluster.Labeling, minPts int) (pi, pii float64, err error) {
	pi, err = quality.QDBDCPI(distributed, central, minPts)
	if err != nil {
		return 0, 0, err
	}
	pii, err = quality.QDBDCPII(distributed, central)
	return pi, pii, err
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds()*1000)
}

func pct(v float64) string {
	return fmt.Sprintf("%.1f", v*100)
}
