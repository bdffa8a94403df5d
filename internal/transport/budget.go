package transport

import (
	"math"

	"github.com/dbdc-go/dbdc/internal/wire"
)

// This file implements the wire side of the SDBDC representative budgets
// (see internal/dbscan/budget.go): the budget accounting section a budgeted
// site attaches to its upload, and the optional MsgHello/MsgHelloAck
// handshake through which the server advertises a per-upload byte cap that
// the client honors by shrinking its budget until the model fits.
//
// All three encodings are internal/wire sections, so every parser on either
// side skips what it does not know: a site that has no budget never sends
// MsgHello and attaches no budget section, and either peer can append
// sections to the hello or the ack without breaking the other.

// SiteBudget is the budget accounting a site reports alongside a budgeted
// upload (the siteBudgetSection trailer of the upload frame).
type SiteBudget struct {
	// RepBudget is the per-cluster representative cap the transmitted
	// model was built under — after any cap-driven shrink, so it may be
	// below the site's configured budget.
	RepBudget int
	// RepsDropped is how many specific cores the budget removed compared
	// to the unbudgeted model.
	RepsDropped int
	// CoverageFraction is the fraction of clustered objects still within
	// the specific ε-range of a transmitted representative.
	CoverageFraction float64
}

// siteBudgetSection carries the budget accounting of a budgeted upload:
// the per-cluster cap the model was built under, how many specific cores the
// budget dropped, and the member coverage the survivors retain.
var siteBudgetSection = wire.Section[SiteBudget]{
	ID:      0x02,
	Version: 1,
	Write: func(w *wire.Writer, b SiteBudget) {
		w.U32(uint32(b.RepBudget))
		w.U32(uint32(b.RepsDropped))
		w.F64(b.CoverageFraction)
	},
	Read: func(r *wire.Reader) SiteBudget {
		return SiteBudget{
			RepBudget:        int(r.U32()),
			RepsDropped:      int(r.U32()),
			CoverageFraction: r.F64(),
		}
	},
}

// budgetCapSection is the server's upload byte cap inside a MsgHelloAck
// payload. A cap beyond int64 is unreadable, so the section is ignored.
var budgetCapSection = wire.Section[int64]{
	ID:      0x03,
	Version: 1,
	Write:   func(w *wire.Writer, maxUploadBytes int64) { w.U64(uint64(maxUploadBytes)) },
	Read: func(r *wire.Reader) int64 {
		v := r.U64()
		if v > math.MaxInt64 {
			r.Failf("transport: upload cap %d overflows int64", v)
		}
		return int64(v)
	},
}

// clientHelloSection is the client's self-description inside a MsgHello
// payload: its configured per-cluster budget.
var clientHelloSection = wire.Section[int]{
	ID:      0x04,
	Version: 1,
	Write:   func(w *wire.Writer, repBudget int) { w.U32(uint32(repBudget)) },
	Read:    func(r *wire.Reader) int { return int(r.U32()) },
}

// encodeHello builds the MsgHello payload: the client's configured
// per-cluster budget, informational for logs and future policy.
func encodeHello(repBudget int) []byte { return clientHelloSection.Append(nil, repBudget) }

// parseHello extracts the client's configured budget from a MsgHello
// payload. A missing or unreadable hello section yields (0, nil) — the
// handshake still succeeds, the field is informational.
func parseHello(data []byte) (repBudget int, err error) {
	var b *int
	if err := wire.ReadSections(data, clientHelloSection.Into(&b)); err != nil || b == nil {
		return 0, err
	}
	return *b, nil
}

// encodeHelloAck builds the MsgHelloAck payload advertising the server's
// upload byte cap. cap 0 (no constraint) encodes as an empty section area —
// byte-identical to a future server with nothing to say.
func encodeHelloAck(maxUploadBytes int64) []byte {
	if maxUploadBytes <= 0 {
		return nil
	}
	return budgetCapSection.Append(nil, maxUploadBytes)
}

// parseHelloAck extracts the upload byte cap from a MsgHelloAck payload.
// 0 means the server advertised no constraint (empty area, unknown
// sections only, or an unreadable cap body — all degrade to uncapped).
func parseHelloAck(data []byte) (maxUploadBytes int64, err error) {
	var c *int64
	if err := wire.ReadSections(data, budgetCapSection.Into(&c)); err != nil || c == nil {
		return 0, err
	}
	return *c, nil
}
