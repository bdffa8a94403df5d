//go:build dbdc_debugchecks

package stream

import (
	"bytes"

	idbdc "github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

// The debug-checks build re-derives every upload with the batch
// LocalStepStore over the same window store and panics unless both marshal
// to the same bytes.
func init() {
	checkUpload = func(cfg Config, st *geom.Store, m *model.LocalModel) {
		batch, err := idbdc.LocalStepStore(cfg.SiteID, st, cfg.Cluster)
		if err != nil {
			panic(err)
		}
		want, werr := batch.Model.MarshalBinary()
		got, gerr := m.MarshalBinary()
		if werr != nil || gerr != nil || !bytes.Equal(got, want) {
			panic("stream: an upload is not LocalStep's model over its window")
		}
	}
}
