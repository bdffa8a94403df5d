package experiments

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// Fig8Cardinality is the 203,000-point data set of Figure 8.
const Fig8Cardinality = 203_000

// Fig8 reproduces Figure 8: overall runtime of DBDC(REP_Scor) on a 203,000
// point data set dependent on the number of sites (8a) and the speed-up
// relative to central DBSCAN (8b). The paper observes a speed-up between
// O(s) and O(s²) in the site count s, because DBSCAN itself scales between
// O(n·log n) and O(n²).
func Fig8(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	n := opt.scaled(Fig8Cardinality)
	ds := data.DatasetA(n, opt.Seed)
	_, centralTime, err := runCentral(ds)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig8",
		Title: fmt.Sprintf("runtime and speed-up vs number of sites (n=%d)", n),
		Columns: []string{"sites", "dbdc(scor)[ms]", "central[ms]", "speedup",
			"s (linear ref)", "s^2 (quadratic ref)"},
	}
	for _, sites := range []int{1, 2, 4, 8, 16, 32} {
		part, err := randomPartition(ds, sites, opt)
		if err != nil {
			return nil, err
		}
		res, err := runDBDC(ds, part, dbdc.Config{Local: ds.Params, Model: model.RepScor, EpsGlobal: 2 * ds.Params.Eps})
		if err != nil {
			return nil, err
		}
		speedup := float64(centralTime) / float64(res.distributedTime)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", sites),
			ms(res.distributedTime),
			ms(centralTime),
			fmt.Sprintf("%.1fx", speedup),
			fmt.Sprintf("%d", sites),
			fmt.Sprintf("%d", sites*sites),
		})
	}
	t.Notes = append(t.Notes,
		"paper: speed-up lies between O(s) and O(s^2) in the number of sites s",
		"dataset A analogue, Eps_global = 2*Eps_local")
	return t, nil
}
