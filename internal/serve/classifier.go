// Package serve is the read side of DBDC: it turns the global model — the
// paper's condensed inference artifact of representatives with specific
// ε-ranges (Definitions 6/7) — into an online classification service.
// While the transport package runs the write side (training rounds that
// rebuild the global model), serve publishes each rebuilt model into a
// versioned registry with lock-free hot swap, classifies arbitrary points
// against the current version with the exact relabeling rule of Section 7
// (shared with dbdc.Relabel through dbdc.RepSelector), and exposes the
// whole thing over the CRC-checked frame protocol plus a Prometheus-format
// metrics endpoint.
package serve

import (
	"fmt"
	"sync"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

// Classifier answers "which global cluster does this point belong to?"
// against one immutable global model. It answers through dbdc.RepSelector,
// the selector Relabel uses: one lookup in a coverage grid over the
// representatives' ε_r-boxes, whose cells are noise, covered by one cluster,
// or a short nearest-wins fold. So online classification of a training point
// is label-identical to the relabeling that trained it.
//
// A Classifier is immutable after construction and safe for any number of
// concurrent readers; the distance buffer of the selection rule is pooled
// internally so the steady-state hot path allocates nothing.
type Classifier struct {
	sel     *dbdc.RepSelector
	model   *model.GlobalModel
	scratch sync.Pool // *dbdc.RepScratch selection buffers
}

// NewClassifier builds a classifier for the global model. The model must
// have passed model.GlobalModel.Validate; the empty all-noise sentinel
// yields a classifier that answers noise for everything.
func NewClassifier(global *model.GlobalModel) (*Classifier, error) {
	sel, err := dbdc.NewRepSelector(global)
	if err != nil {
		return nil, fmt.Errorf("serve: building classifier: %w", err)
	}
	c := &Classifier{sel: sel, model: global}
	c.scratch.New = func() any { return new(dbdc.RepScratch) }
	return c, nil
}

// Model returns the global model the classifier serves. Callers must treat
// it as immutable.
func (c *Classifier) Model() *model.GlobalModel { return c.model }

// Dim returns the dimensionality the classifier accepts, 0 for the empty
// sentinel (which accepts — and noise-labels — anything).
func (c *Classifier) Dim() int { return c.sel.Dim() }

// NumReps returns the number of representatives the classifier serves.
func (c *Classifier) NumReps() int { return c.sel.NumReps() }

// checkPoint validates one untrusted query point against the model.
func (c *Classifier) checkPoint(i int, p geom.Point) error {
	if len(p) == 0 {
		return fmt.Errorf("serve: point %d has no coordinates", i)
	}
	if !p.IsFinite() {
		return fmt.Errorf("serve: point %d has non-finite coordinates", i)
	}
	if !c.sel.Empty() && p.Dim() != c.sel.Dim() {
		return fmt.Errorf("serve: point %d has dimension %d, model has %d", i, p.Dim(), c.sel.Dim())
	}
	return nil
}

// Classify labels one point: the global cluster id of the nearest covering
// representative, or noise. Points of the wrong dimensionality (or with
// non-finite coordinates) are rejected with an error — network input never
// reaches the distance kernels unchecked.
func (c *Classifier) Classify(p geom.Point) (cluster.ID, error) {
	if err := c.checkPoint(0, p); err != nil {
		return cluster.Noise, err
	}
	sc := c.scratch.Get().(*dbdc.RepScratch)
	id := c.sel.SelectInto(p, sc)
	c.scratch.Put(sc)
	return id, nil
}

// ClassifyBatch labels a batch of points into out (which must have the
// batch's length). Validation is all-or-nothing: a bad point fails the
// whole batch before any classification happens, so a reply never mixes
// labels with an error.
func (c *Classifier) ClassifyBatch(pts []geom.Point, out []cluster.ID) error {
	if len(out) != len(pts) {
		return fmt.Errorf("serve: batch of %d points but %d output slots", len(pts), len(out))
	}
	for i, p := range pts {
		if err := c.checkPoint(i, p); err != nil {
			return err
		}
	}
	sc := c.scratch.Get().(*dbdc.RepScratch)
	for i, p := range pts {
		out[i] = c.sel.SelectInto(p, sc)
	}
	c.scratch.Put(sc)
	return nil
}
