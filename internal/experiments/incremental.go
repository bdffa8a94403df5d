package experiments

import (
	"fmt"
	"math/rand"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/incdbscan"
	"github.com/dbdc-go/dbdc/internal/model"
)

// Incremental quantifies Section 4's motivation for building on DBSCAN:
// "only if the local clustering changes considerably, we have to transmit
// a new local model to the central site". Data streams into 4 sites over
// several epochs; a naive deployment re-uploads every model every epoch,
// the incremental deployment maintains its clustering with incremental
// DBSCAN and uploads only when the change metric (1 − P^II against the
// last transmitted snapshot) exceeds a threshold. The table reports
// uploads and bytes for both policies and the quality of the incremental
// deployment's final global model against the final central clustering.
// This is an extension table, not a paper figure.
func Incremental(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	const (
		sites     = 4
		epochs    = 6
		threshold = 0.15
	)
	ds := data.DatasetA(opt.scaled(data.DatasetASize), opt.Seed)
	rng := rand.New(rand.NewSource(opt.Seed + 2))
	part, err := data.PartitionRandom(len(ds.Points), sites, rng)
	if err != nil {
		return nil, err
	}
	sitePts := part.Extract(ds.Points)
	cfg := dbdc.Config{Local: ds.Params, Model: model.RepScor}

	type siteState struct {
		inc      *incdbscan.Clusterer
		pts      []geom.Point
		snapshot cluster.Labeling
		model    *model.LocalModel
	}
	states := make([]*siteState, sites)
	for s := range states {
		inc, err := incdbscan.New(ds.Params)
		if err != nil {
			return nil, err
		}
		states[s] = &siteState{inc: inc}
	}
	t := &Table{
		ID:    "incremental",
		Title: "incremental model maintenance vs naive re-upload (dataset A streamed over epochs)",
		Columns: []string{"epoch", "uploads(incremental)", "uploads(naive)",
			"bytes(incremental)", "bytes(naive)"},
	}
	var totalIncBytes, totalNaiveBytes, totalIncUploads int
	// The stream front-loads: a large initial backfill, then a trickle —
	// the regime the retransmission policy exists for. Cumulative shares
	// of each site's data after each epoch:
	cumulative := []float64{0.40, 0.65, 0.80, 0.90, 0.96, 1.0}
	for epoch := 1; epoch <= epochs; epoch++ {
		for s, st := range states {
			all := sitePts[s]
			start := 0
			if epoch > 1 {
				start = int(cumulative[epoch-2] * float64(len(all)))
			}
			end := int(cumulative[epoch-1] * float64(len(all)))
			for _, p := range all[start:end] {
				if _, err := st.inc.Insert(p); err != nil {
					return nil, err
				}
				st.pts = append(st.pts, p)
			}
		}
		incUploads, naiveUploads := 0, 0
		incBytes, naiveBytes := 0, 0
		for s, st := range states {
			// Naive policy: always rebuild and upload.
			out, err := dbdc.LocalStep(fmt.Sprintf("site-%02d", s), st.pts, cfg)
			if err != nil {
				return nil, err
			}
			naiveUploads++
			naiveBytes += out.Model.EncodedSize()
			// Incremental policy: upload only on considerable change.
			needUpload := st.snapshot == nil
			if !needUpload {
				padded, err := dbdc.PadSnapshot(st.snapshot, st.inc.Len())
				if err != nil {
					return nil, err
				}
				change, err := dbdc.ClusteringChange(padded, st.inc.Labels())
				if err != nil {
					return nil, err
				}
				needUpload = change > threshold
			}
			if needUpload {
				st.snapshot = st.inc.Labels()
				st.model = out.Model
				incUploads++
				incBytes += out.Model.EncodedSize()
			}
		}
		totalIncBytes += incBytes
		totalNaiveBytes += naiveBytes
		totalIncUploads += incUploads
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", epoch),
			fmt.Sprintf("%d/%d", incUploads, sites),
			fmt.Sprintf("%d/%d", naiveUploads, sites),
			fmt.Sprintf("%d", incBytes),
			fmt.Sprintf("%d", naiveBytes),
		})
	}
	// Final quality of the incremental deployment (which may hold stale
	// models) against the final central clustering.
	var models []*model.LocalModel
	for _, st := range states {
		models = append(models, st.model)
	}
	cfgFinal := cfg
	cfgFinal.EpsGlobal = 2 * ds.Params.Eps
	global, err := dbdc.GlobalStep(models, cfgFinal)
	if err != nil {
		return nil, err
	}
	perSite := make([][]cluster.ID, sites)
	for s, st := range states {
		perSite[s], err = dbdc.Relabel(st.pts, global)
		if err != nil {
			return nil, err
		}
	}
	distributed, err := data.Assemble(part, perSite, len(ds.Points))
	if err != nil {
		return nil, err
	}
	central, _, err := runCentral(ds)
	if err != nil {
		return nil, err
	}
	_, pii, err := qualities(distributed, central.Labels, ds.Params.MinPts)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("change threshold %.2f on 1-P^II vs the last transmitted snapshot", threshold),
		fmt.Sprintf("totals: %d uploads / %dB incremental vs %d / %dB naive (%.0f%% of the bytes)",
			totalIncUploads, totalIncBytes, epochs*sites, totalNaiveBytes,
			100*float64(totalIncBytes)/float64(totalNaiveBytes)),
		fmt.Sprintf("final quality with possibly stale models: P^II = %s vs final central clustering", pct(pii)))
	return t, nil
}
