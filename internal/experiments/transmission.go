package experiments

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// Transmission quantifies the introduction's central claim — "the
// transmission costs are minimal as the representatives are only a
// fraction of the original data" — which the paper asserts but never
// tabulates: for each evaluation data set, the bytes every site uploads
// (binary local model), the bytes the server broadcasts back, and the cost
// of shipping the raw points instead. This is an extension table, not a
// paper figure.
func Transmission(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		ID:    "transmission",
		Title: "transmission cost: local models vs raw data",
		Columns: []string{"dataset", "n", "sites", "reps",
			"uplink[B]", "downlink[B/site]", "raw[B]", "saving"},
	}
	datasets := []data.Dataset{
		data.DatasetA(opt.scaled(data.DatasetASize), opt.Seed),
		data.DatasetB(opt.Seed),
		data.DatasetC(opt.Seed),
	}
	for _, ds := range datasets {
		for _, sites := range []int{4, 16} {
			part, err := randomPartition(ds, sites, opt)
			if err != nil {
				return nil, err
			}
			res, err := runDBDC(ds, part, dbdc.Config{Local: ds.Params, Model: model.RepScor, EpsGlobal: 2 * ds.Params.Eps})
			if err != nil {
				return nil, err
			}
			var uplink int
			for _, sr := range res.run.Sites {
				uplink += sr.UplinkBytes
			}
			downlink := res.run.Global.EncodedSize()
			raw := len(ds.Points) * ds.Points[0].Dim() * 8
			t.Rows = append(t.Rows, []string{
				ds.Name,
				fmt.Sprintf("%d", len(ds.Points)),
				fmt.Sprintf("%d", sites),
				fmt.Sprintf("%d", res.run.TotalRepresentatives()),
				fmt.Sprintf("%d", uplink),
				fmt.Sprintf("%d", downlink),
				fmt.Sprintf("%d", raw),
				fmt.Sprintf("%.1fx", float64(raw)/float64(uplink)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"uplink = sum of binary local models; raw = shipping every coordinate as float64",
		"REP_Scor, Eps_global = 2*Eps_local; REP_kMeans transmits the same number of representatives")
	return t, nil
}
