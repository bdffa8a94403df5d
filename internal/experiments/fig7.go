package experiments

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// fig7Sites is the site count of the cardinality sweeps. The paper plots
// one DBDC curve per local model against central DBSCAN.
const fig7Sites = 4

// runtimeSweep builds the shared machinery of Figures 7a and 7b: for every
// cardinality it measures central DBSCAN against DBDC with both local
// models and Eps_global = 2·Eps_local.
func runtimeSweep(id, title string, cardinalities []int, opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		ID:    id,
		Title: title,
		Columns: []string{"n", "central[ms]", "dbdc(scor)[ms]", "dbdc(kmeans)[ms]",
			"speedup(scor)", "speedup(kmeans)", "totalwork(scor)[ms]"},
	}
	for _, n := range cardinalities {
		n = opt.scaled(n)
		ds := data.DatasetA(n, opt.Seed)
		_, centralTime, err := runCentral(ds)
		if err != nil {
			return nil, err
		}
		part, err := randomPartition(ds, fig7Sites, opt)
		if err != nil {
			return nil, err
		}
		cfg := dbdc.Config{Local: ds.Params, Model: model.RepScor, EpsGlobal: 2 * ds.Params.Eps}
		scor, err := runDBDC(ds, part, cfg)
		if err != nil {
			return nil, err
		}
		cfg.Model = model.RepKMeans
		km, err := runDBDC(ds, part, cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			ms(centralTime),
			ms(scor.distributedTime),
			ms(km.distributedTime),
			fmt.Sprintf("%.1fx", float64(centralTime)/float64(scor.distributedTime)),
			fmt.Sprintf("%.1fx", float64(centralTime)/float64(km.distributedTime)),
			ms(scor.run.TotalWork()),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d sites, Eps_global = 2*Eps_local, dataset A", fig7Sites),
		"distributed time = max(local clustering) + global clustering, as in the paper",
		"totalwork = sum of all site work + server work: the single-machine overhead of distribution")
	return t, nil
}

// Fig7a reproduces Figure 7a: overall runtime for central versus
// distributed clustering on large cardinalities of data set A. The paper
// reports DBDC outperforming central DBSCAN by more than an order of
// magnitude at 100,000 points, with REP_Scor cheaper than REP_kMeans.
func Fig7a(opt Options) (*Table, error) {
	return runtimeSweep("fig7a", "runtime vs cardinality (large)",
		[]int{10_000, 25_000, 50_000, 75_000, 100_000}, opt)
}

// Fig7b reproduces Figure 7b: the same comparison on small cardinalities,
// where the paper finds DBDC "slightly slower" with "almost negligible"
// overhead.
func Fig7b(opt Options) (*Table, error) {
	return runtimeSweep("fig7b", "runtime vs cardinality (small)",
		[]int{500, 1_000, 2_000, 4_000, 8_700}, opt)
}
