package model

import (
	"encoding/json"
	"fmt"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/wire"
)

// Wire format: the little-endian encoding of internal/wire. Every model
// starts with a one-byte type tag and a format version so the protocol can
// evolve.
const (
	wireVersion byte = 1

	tagLocalModel  byte = 0x4C // 'L'
	tagGlobalModel byte = 0x47 // 'G'
)

// limits guard against corrupt or malicious frames blowing up memory.
const (
	maxWireReps   = 10_000_000
	maxWireDim    = 1024
	maxWireSiteID = 4096

	// Minimum wire sizes of one representative (dim prefix + eps +
	// cluster id, with an empty point) and its global wrapper (site-id
	// length prefix + global cluster id on top). Used to bound slice
	// preallocation by the bytes actually present, so a tiny frame
	// advertising millions of representatives cannot allocate gigabytes
	// before the decode fails.
	minWireRep       = 4 + 8 + 4
	minWireGlobalRep = minWireRep + 4 + 4
)

func writeRep(w *wire.Writer, rep Representative) {
	w.U32(uint32(rep.Point.Dim()))
	for _, c := range rep.Point {
		w.F64(c)
	}
	w.F64(rep.Eps)
	w.I32(int32(rep.LocalCluster))
}

// wireRepSize returns the encoded size of one representative.
func wireRepSize(rep Representative) int { return 4 + 8*rep.Point.Dim() + 8 + 4 }

// scanRepCoords walks n representative encodings on a VALUE COPY of the
// reader (the caller's position is untouched) and returns the total
// coordinate count, so the decode loop can carve every rep's point out of
// one exactly-sized flat buffer — one coordinate allocation per model
// instead of one per representative. With global set it also skips the
// per-rep site id and global cluster id. ok is false when the frame is
// malformed; the caller then falls through to the per-field decode, which
// reports the error with its usual diagnostics.
func scanRepCoords(r wire.Reader, n int, global bool) (total int, ok bool) {
	for i := 0; i < n; i++ {
		dim := int(r.U32())
		if dim > maxWireDim || !r.Skip(dim*8+12) {
			return 0, false
		}
		if global {
			sl := int(r.U32())
			if sl > maxWireSiteID || !r.Skip(sl+4) {
				return 0, false
			}
		}
		total += dim
	}
	return total, true
}

// readRep decodes one representative. When *flat has spare capacity for the
// point it carves a capacity-clipped view out of it (the pre-scanned
// one-allocation path); otherwise it falls back to a per-rep allocation.
func readRep(r *wire.Reader, flat *[]float64) Representative {
	dim := int(r.U32())
	if dim > maxWireDim {
		r.Failf("model: dimension %d exceeds limit", dim)
	}
	if r.Err() != nil {
		return Representative{}
	}
	var p geom.Point
	if f := *flat; cap(f)-len(f) >= dim {
		base := len(f)
		f = f[: base+dim : cap(f)]
		*flat = f
		p = geom.Point(f[base : base+dim : base+dim])
	} else {
		p = make(geom.Point, dim)
	}
	for i := range p {
		p[i] = r.F64()
	}
	return Representative{
		Point:        p,
		Eps:          r.F64(),
		LocalCluster: cluster.ID(r.I32()),
	}
}

// readRepCount reads a representative count and bounds it, by maxWireReps
// and by the bytes left at minSize bytes a representative, so a tiny frame
// advertising millions of representatives fails before any allocation
// sized by the count.
func readRepCount(r *wire.Reader, minSize int) int {
	n := int(r.U32())
	if n > maxWireReps {
		r.Failf("model: representative count %d exceeds limit", n)
	}
	if n*minSize > r.Len() {
		r.Failf("model: representative count %d exceeds the %d remaining bytes", n, r.Len())
	}
	return n
}

// readHeader reads a frame's type tag and format version, failing r when
// either is not the expected one.
func readHeader(r *wire.Reader, tag byte, frame string) {
	if t := r.U8(); r.Err() == nil && t != tag {
		r.Failf("model: expected %s frame, got tag 0x%02x", frame, t)
	}
	if v := r.U8(); r.Err() == nil && v != wireVersion {
		r.Failf("model: unsupported wire version %d", v)
	}
}

// wireSize returns the exact encoded size of the local model in bytes.
func (m *LocalModel) wireSize() int {
	size := 2 + 4 + len(m.SiteID) + 4 + len(m.Kind) + 8 + 4 + 4 + 4 + 4
	for _, rep := range m.Reps {
		size += wireRepSize(rep)
	}
	return size
}

// MarshalBinary encodes the local model in the compact wire format. The
// output buffer is presized exactly, so the encode is one allocation total.
func (m *LocalModel) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(make([]byte, 0, m.wireSize()))
	m.write(&w)
	return w.Bytes(), nil
}

// write appends the local model frame to w.
func (m *LocalModel) write(w *wire.Writer) {
	w.U8(tagLocalModel)
	w.U8(wireVersion)
	w.Str(m.SiteID)
	w.Str(string(m.Kind))
	w.F64(m.EpsLocal)
	w.I32(int32(m.MinPts))
	w.I32(int32(m.NumObjects))
	w.I32(int32(m.NumClusters))
	w.U32(uint32(len(m.Reps)))
	for _, rep := range m.Reps {
		writeRep(w, rep)
	}
}

// UnmarshalBinary decodes a local model, validating limits as it reads.
func (m *LocalModel) UnmarshalBinary(data []byte) error {
	n, err := m.UnmarshalBinaryPrefix(data)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("model: %d trailing bytes after local model", len(data)-n)
	}
	return nil
}

// UnmarshalBinaryPrefix decodes a local model from the beginning of data and
// returns the number of bytes consumed. Unlike UnmarshalBinary it tolerates
// trailing bytes, which is how the transport's sectioned upload frames
// (model bytes immediately followed by optional metric sections) locate the
// section area: the model encoding is self-delimiting.
func (m *LocalModel) UnmarshalBinaryPrefix(data []byte) (int, error) {
	r := wire.NewReader(data)
	readHeader(&r, tagLocalModel, "local model")
	m.SiteID = r.Str(maxWireSiteID)
	m.Kind = Kind(r.Str(maxWireSiteID))
	m.EpsLocal = r.F64()
	m.MinPts = int(r.I32())
	m.NumObjects = int(r.I32())
	m.NumClusters = int(r.I32())
	n := readRepCount(&r, minWireRep)
	if r.Err() != nil {
		return 0, r.Err()
	}
	// Pre-scan the rep encodings to size one flat coordinate buffer; every
	// rep's point is then a capacity-clipped view into it (≤ 1 coordinate
	// allocation per model instead of one per rep).
	var flat []float64
	if total, ok := scanRepCoords(r, n, false); ok && total > 0 {
		flat = make([]float64, 0, total)
	}
	m.Reps = make([]Representative, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Reps = append(m.Reps, readRep(&r, &flat))
	}
	if r.Err() != nil {
		return 0, r.Err()
	}
	return r.Pos(), nil
}

// PeekLocalSiteID extracts the site id from an encoded local model without
// decoding the rest, best effort: it returns "" when data does not start
// like a local model. The transport uses it to name the site behind a
// partially corrupt upload in its round report.
func PeekLocalSiteID(data []byte) string {
	r := wire.NewReader(data)
	readHeader(&r, tagLocalModel, "local model")
	return r.Str(maxWireSiteID)
}

// wireSize returns the exact encoded size of the global model in bytes.
func (g *GlobalModel) wireSize() int {
	size := 2 + 8 + 4 + 4 + 4
	for _, rep := range g.Reps {
		size += wireRepSize(rep.Representative) + 4 + len(rep.SiteID) + 4
	}
	return size
}

// MarshalBinary encodes the global model in the compact wire format. The
// output buffer is presized exactly, so the encode is one allocation total.
func (g *GlobalModel) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(make([]byte, 0, g.wireSize()))
	w.U8(tagGlobalModel)
	w.U8(wireVersion)
	w.F64(g.EpsGlobal)
	w.I32(int32(g.MinPtsGlobal))
	w.I32(int32(g.NumClusters))
	w.U32(uint32(len(g.Reps)))
	for _, rep := range g.Reps {
		writeRep(&w, rep.Representative)
		w.Str(rep.SiteID)
		w.I32(int32(rep.GlobalCluster))
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a global model.
func (g *GlobalModel) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	readHeader(&r, tagGlobalModel, "global model")
	g.EpsGlobal = r.F64()
	g.MinPtsGlobal = int(r.I32())
	g.NumClusters = int(r.I32())
	n := readRepCount(&r, minWireGlobalRep)
	if r.Err() != nil {
		return r.Err()
	}
	// Pre-scan for the flat coordinate buffer (≤ 1 coordinate allocation per
	// model) and intern the site ids — thousands of reps typically carry a
	// handful of distinct sites, so repeated ids share one string each.
	var flat []float64
	if total, ok := scanRepCoords(r, n, true); ok && total > 0 {
		flat = make([]float64, 0, total)
	}
	intern := make(map[string]string, 8)
	g.Reps = make([]GlobalRepresentative, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		rep := readRep(&r, &flat)
		g.Reps = append(g.Reps, GlobalRepresentative{
			Representative: rep,
			SiteID:         r.StrInterned(maxWireSiteID, intern),
			GlobalCluster:  cluster.ID(r.I32()),
		})
	}
	if r.Err() != nil {
		return r.Err()
	}
	if r.Len() != 0 {
		return fmt.Errorf("model: %d trailing bytes after global model", r.Len())
	}
	return nil
}

// EncodedSize returns the wire size of the local model in bytes — the
// uplink transmission cost of the site.
func (m *LocalModel) EncodedSize() int {
	b, _ := m.MarshalBinary()
	return len(b)
}

// EncodedSize returns the wire size of the global model in bytes — the
// downlink transmission cost per site.
func (g *GlobalModel) EncodedSize() int {
	b, _ := g.MarshalBinary()
	return len(b)
}

// MarshalJSON/Unmarshal are provided by encoding/json via struct tags; the
// helpers below exist so benchmarks can compare the wire encodings.

// JSONSize returns the size of the JSON encoding of the local model.
func (m *LocalModel) JSONSize() int {
	b, err := json.Marshal(m)
	if err != nil {
		return 0
	}
	return len(b)
}

// RawPointsSize returns the wire size that shipping all NumObjects raw
// points of the site would have needed (dim coordinates of 8 bytes each).
// The ratio EncodedSize/RawPointsSize is the paper's transmission saving.
func (m *LocalModel) RawPointsSize(dim int) int {
	return m.NumObjects * dim * 8
}
