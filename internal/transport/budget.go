package transport

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file implements the wire side of the SDBDC representative budgets
// (see internal/dbscan/budget.go): the budget accounting section a budgeted
// site attaches to its upload, and the optional MsgHello/MsgHelloAck
// handshake through which the server advertises a per-upload byte cap that
// the client honors by shrinking its budget until the model fits.
//
// All three encodings reuse the section format of phases.go —
// [id byte][u32 body length][body] — so every parser on either side skips
// what it does not know: a site that has no budget never sends MsgHello and
// attaches no budget section, and either peer can append sections to the
// hello or the ack without breaking the other.
const (
	// sectionSiteBudget carries the budget accounting of a budgeted
	// upload: the per-cluster cap the model was built under, how many
	// specific cores the budget dropped, and the member coverage the
	// survivors retain.
	sectionSiteBudget byte = 0x02
	// sectionBudgetCap is the server's upload byte cap inside a
	// MsgHelloAck payload.
	sectionBudgetCap byte = 0x03
	// sectionClientHello is the client's self-description inside a
	// MsgHello payload.
	sectionClientHello byte = 0x04

	siteBudgetVersion byte = 1
	// siteBudgetBodyLen: version byte, rep budget u32, reps dropped u32,
	// coverage fraction f64.
	siteBudgetBodyLen = 1 + 4 + 4 + 8

	budgetCapVersion byte = 1
	// budgetCapBodyLen: version byte, max upload bytes u64.
	budgetCapBodyLen = 1 + 8

	clientHelloVersion byte = 1
	// clientHelloBodyLen: version byte, configured rep budget u32.
	clientHelloBodyLen = 1 + 4
)

// SiteBudget is the budget accounting a site reports alongside a budgeted
// upload (the sectionSiteBudget trailer of the upload frame).
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

// appendSiteBudgetSection appends the encoded budget section to dst.
func appendSiteBudgetSection(dst []byte, b SiteBudget) []byte {
	dst = append(dst, sectionSiteBudget)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(siteBudgetBodyLen))
	dst = append(dst, siteBudgetVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.RepBudget))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.RepsDropped))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.CoverageFraction))
	return dst
}

// parseSiteBudgetBody decodes a version-1 (or newer, prefix-compatible)
// budget section body. ok is false on a short body or unknown version — the
// section is then ignored, it never fails the upload.
func parseSiteBudgetBody(body []byte) (SiteBudget, bool) {
	if len(body) < siteBudgetBodyLen || body[0] != siteBudgetVersion {
		return SiteBudget{}, false
	}
	return SiteBudget{
		RepBudget:        int(binary.LittleEndian.Uint32(body[1:5])),
		RepsDropped:      int(binary.LittleEndian.Uint32(body[5:9])),
		CoverageFraction: math.Float64frombits(binary.LittleEndian.Uint64(body[9:17])),
	}, true
}

// encodeHello builds the MsgHello payload: the client's configured
// per-cluster budget, informational for logs and future policy.
func encodeHello(repBudget int) []byte {
	dst := make([]byte, 0, sectionHeaderSize+clientHelloBodyLen)
	dst = append(dst, sectionClientHello)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(clientHelloBodyLen))
	dst = append(dst, clientHelloVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(repBudget))
	return dst
}

// parseHello extracts the client's configured budget from a MsgHello
// payload. Unknown sections are skipped; a missing or unreadable hello
// section yields (0, nil) — the handshake still succeeds, the field is
// informational.
func parseHello(data []byte) (repBudget int, err error) {
	err = walkSections(data, func(id byte, body []byte) {
		if id == sectionClientHello && len(body) >= clientHelloBodyLen && body[0] == clientHelloVersion {
			repBudget = int(binary.LittleEndian.Uint32(body[1:5]))
		}
	})
	return repBudget, err
}

// encodeHelloAck builds the MsgHelloAck payload advertising the server's
// upload byte cap. cap 0 (no constraint) encodes as an empty section area —
// byte-identical to a future server with nothing to say.
func encodeHelloAck(maxUploadBytes int64) []byte {
	if maxUploadBytes <= 0 {
		return nil
	}
	dst := make([]byte, 0, sectionHeaderSize+budgetCapBodyLen)
	dst = append(dst, sectionBudgetCap)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(budgetCapBodyLen))
	dst = append(dst, budgetCapVersion)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(maxUploadBytes))
	return dst
}

// parseHelloAck extracts the upload byte cap from a MsgHelloAck payload.
// 0 means the server advertised no constraint (empty area, unknown
// sections only, or an unreadable cap body — all degrade to uncapped).
func parseHelloAck(data []byte) (maxUploadBytes int64, err error) {
	err = walkSections(data, func(id byte, body []byte) {
		if id == sectionBudgetCap && len(body) >= budgetCapBodyLen && body[0] == budgetCapVersion {
			v := binary.LittleEndian.Uint64(body[1:9])
			if v <= math.MaxInt64 {
				maxUploadBytes = int64(v)
			}
		}
	})
	return maxUploadBytes, err
}

// walkSections iterates a section area, invoking fn for every
// well-delimited section. A truncated header or body is an error: the bytes
// passed the frame CRC, so truncation means a broken encoder, not line
// noise.
func walkSections(data []byte, fn func(id byte, body []byte)) error {
	for len(data) > 0 {
		if len(data) < sectionHeaderSize {
			return fmt.Errorf("transport: truncated section header: %d trailing bytes", len(data))
		}
		id := data[0]
		n := int(binary.LittleEndian.Uint32(data[1:5]))
		data = data[sectionHeaderSize:]
		if n > len(data) {
			return fmt.Errorf("transport: section 0x%02x advertises %d bytes, %d remain", id, n, len(data))
		}
		fn(id, data[:n])
		data = data[n:]
	}
	return nil
}
