package experiments

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// Partitions ablates the data-to-site layout the paper holds fixed (its
// experiments distribute objects uniformly at random): random versus
// round-robin versus spatially skewed sectors, on data set A at 4 and 10
// sites. Random and round-robin give every site a thinned copy of every
// cluster; the spatial layout gives each site a different region, so local
// clusterings are dense but partial and the representative/ε-range
// mechanism has to stitch region-spanning clusters back together. This is
// an extension table, not a paper figure.
func Partitions(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	ds := data.DatasetA(opt.scaled(data.DatasetASize), opt.Seed)
	central, _, err := runCentral(ds)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "partitions",
		Title:   "quality vs data-to-site layout (dataset A)",
		Columns: []string{"layout", "sites", "repr.[%]", "P^I", "P^II"},
	}
	cfg := dbdc.Config{Local: ds.Params, Model: model.RepScor, EpsGlobal: 2 * ds.Params.Eps}
	type layout struct {
		name string
		make func(k int) (*data.Partition, error)
	}
	layouts := []layout{
		{"random", func(k int) (*data.Partition, error) {
			return randomPartition(ds, k, opt)
		}},
		{"round-robin", func(k int) (*data.Partition, error) {
			return data.PartitionRoundRobin(len(ds.Points), k)
		}},
		{"spatial", func(k int) (*data.Partition, error) {
			return data.PartitionSpatial(ds.Points, k)
		}},
	}
	for _, l := range layouts {
		for _, k := range []int{4, 10} {
			part, err := l.make(k)
			if err != nil {
				return nil, err
			}
			res, err := runDBDC(ds, part, cfg)
			if err != nil {
				return nil, err
			}
			pi, pii, err := qualities(res.distributed, central.Labels, ds.Params.MinPts)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				l.name,
				fmt.Sprintf("%d", k),
				pct(res.repFraction),
				pct(pi),
				pct(pii),
			})
		}
	}
	t.Notes = append(t.Notes,
		"REP_Scor, Eps_global = 2*Eps_local",
		"spatial sectors concentrate each cluster on few sites: fewer representatives, typically higher quality — density survives the split")
	return t, nil
}
