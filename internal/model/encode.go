package model

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
)

// Wire format: a little-endian binary encoding. Every model starts with a
// one-byte type tag and a format version so the protocol can evolve.
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

// wireWriter appends the little-endian encoding to one flat byte slice. The
// marshal entry points presize it to the exact frame length, so encoding a
// model performs a single allocation regardless of the representative count
// (the old bytes.Buffer + binary.Write writer boxed every fixed-size write).
type wireWriter struct {
	buf []byte
}

func newWireWriter(size int) wireWriter { return wireWriter{buf: make([]byte, 0, size)} }

func (w *wireWriter) u8(v byte)    { w.buf = append(w.buf, v) }
func (w *wireWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *wireWriter) i32(v int32)  { w.u32(uint32(v)) }
func (w *wireWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *wireWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

type wireReader struct {
	data []byte
	pos  int
	err  error
}

func (r *wireReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("model: "+format, args...)
	}
}

func (r *wireReader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.pos+n > len(r.data) {
		r.fail("truncated frame: need %d bytes at offset %d of %d", n, r.pos, len(r.data))
		return false
	}
	return true
}

func (r *wireReader) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.data[r.pos]
	r.pos++
	return v
}

func (r *wireReader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v
}

func (r *wireReader) i32() int32 { return int32(r.u32()) }

func (r *wireReader) f64() float64 {
	if !r.need(8) {
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v
}

func (r *wireReader) str(limit int) string {
	n := int(r.u32())
	if r.err != nil {
		return ""
	}
	if n > limit {
		r.fail("string length %d exceeds limit %d", n, limit)
		return ""
	}
	if !r.need(n) {
		return ""
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s
}

// strInterned is str with deduplication through the given table: repeated
// strings (the handful of site ids shared by thousands of global
// representatives) decode to one shared allocation. The map lookup with a
// string(b) key expression does not allocate on a hit.
func (r *wireReader) strInterned(limit int, intern map[string]string) string {
	n := int(r.u32())
	if r.err != nil {
		return ""
	}
	if n > limit {
		r.fail("string length %d exceeds limit %d", n, limit)
		return ""
	}
	if !r.need(n) {
		return ""
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	if s, ok := intern[string(b)]; ok {
		return s
	}
	s := string(b)
	intern[s] = s
	return s
}

func writeRep(w *wireWriter, rep Representative) {
	w.u32(uint32(rep.Point.Dim()))
	for _, c := range rep.Point {
		w.f64(c)
	}
	w.f64(rep.Eps)
	w.i32(int32(rep.LocalCluster))
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
func scanRepCoords(r wireReader, n int, global bool) (total int, ok bool) {
	for i := 0; i < n; i++ {
		dim := int(r.u32())
		if r.err != nil || dim > maxWireDim {
			return 0, false
		}
		if !r.need(dim*8 + 12) {
			return 0, false
		}
		r.pos += dim*8 + 12
		if global {
			sl := int(r.u32())
			if r.err != nil || sl > maxWireSiteID {
				return 0, false
			}
			if !r.need(sl + 4) {
				return 0, false
			}
			r.pos += sl + 4
		}
		total += dim
	}
	return total, true
}

// readRep decodes one representative. When *flat has spare capacity for the
// point it carves a capacity-clipped view out of it (the pre-scanned
// one-allocation path); otherwise it falls back to a per-rep allocation.
func readRep(r *wireReader, flat *[]float64) Representative {
	dim := int(r.u32())
	if r.err == nil && dim > maxWireDim {
		r.fail("dimension %d exceeds limit", dim)
	}
	if r.err != nil {
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
		p[i] = r.f64()
	}
	return Representative{
		Point:        p,
		Eps:          r.f64(),
		LocalCluster: cluster.ID(r.i32()),
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
	w := newWireWriter(m.wireSize())
	m.write(&w)
	return w.buf, nil
}

// write appends the local model frame to w.
func (m *LocalModel) write(w *wireWriter) {
	w.u8(tagLocalModel)
	w.u8(wireVersion)
	w.str(m.SiteID)
	w.str(string(m.Kind))
	w.f64(m.EpsLocal)
	w.i32(int32(m.MinPts))
	w.i32(int32(m.NumObjects))
	w.i32(int32(m.NumClusters))
	w.u32(uint32(len(m.Reps)))
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
	r := &wireReader{data: data}
	if tag := r.u8(); r.err == nil && tag != tagLocalModel {
		return 0, fmt.Errorf("model: expected local model frame, got tag 0x%02x", tag)
	}
	if v := r.u8(); r.err == nil && v != wireVersion {
		return 0, fmt.Errorf("model: unsupported wire version %d", v)
	}
	m.SiteID = r.str(maxWireSiteID)
	m.Kind = Kind(r.str(maxWireSiteID))
	m.EpsLocal = r.f64()
	m.MinPts = int(r.i32())
	m.NumObjects = int(r.i32())
	m.NumClusters = int(r.i32())
	n := int(r.u32())
	if r.err == nil && n > maxWireReps {
		r.fail("representative count %d exceeds limit", n)
	}
	if r.err == nil && n*minWireRep > len(data)-r.pos {
		r.fail("representative count %d exceeds the %d remaining bytes", n, len(data)-r.pos)
	}
	if r.err != nil {
		return 0, r.err
	}
	// Pre-scan the rep encodings to size one flat coordinate buffer; every
	// rep's point is then a capacity-clipped view into it (≤ 1 coordinate
	// allocation per model instead of one per rep).
	var flat []float64
	if total, ok := scanRepCoords(*r, n, false); ok && total > 0 {
		flat = make([]float64, 0, total)
	}
	m.Reps = make([]Representative, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		m.Reps = append(m.Reps, readRep(r, &flat))
	}
	if r.err != nil {
		return 0, r.err
	}
	return r.pos, nil
}

// PeekLocalSiteID extracts the site id from an encoded local model without
// decoding the rest, best effort: it returns "" when data does not start
// like a local model. The transport uses it to name the site behind a
// partially corrupt upload in its round report.
func PeekLocalSiteID(data []byte) string {
	r := &wireReader{data: data}
	if tag := r.u8(); r.err != nil || tag != tagLocalModel {
		return ""
	}
	if v := r.u8(); r.err != nil || v != wireVersion {
		return ""
	}
	id := r.str(maxWireSiteID)
	if r.err != nil {
		return ""
	}
	return id
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
	w := newWireWriter(g.wireSize())
	w.u8(tagGlobalModel)
	w.u8(wireVersion)
	w.f64(g.EpsGlobal)
	w.i32(int32(g.MinPtsGlobal))
	w.i32(int32(g.NumClusters))
	w.u32(uint32(len(g.Reps)))
	for _, rep := range g.Reps {
		writeRep(&w, rep.Representative)
		w.str(rep.SiteID)
		w.i32(int32(rep.GlobalCluster))
	}
	return w.buf, nil
}

// UnmarshalBinary decodes a global model.
func (g *GlobalModel) UnmarshalBinary(data []byte) error {
	r := &wireReader{data: data}
	if tag := r.u8(); r.err == nil && tag != tagGlobalModel {
		return fmt.Errorf("model: expected global model frame, got tag 0x%02x", tag)
	}
	if v := r.u8(); r.err == nil && v != wireVersion {
		return fmt.Errorf("model: unsupported wire version %d", v)
	}
	g.EpsGlobal = r.f64()
	g.MinPtsGlobal = int(r.i32())
	g.NumClusters = int(r.i32())
	n := int(r.u32())
	if r.err == nil && n > maxWireReps {
		r.fail("representative count %d exceeds limit", n)
	}
	if r.err == nil && n*minWireGlobalRep > len(data)-r.pos {
		r.fail("representative count %d exceeds the %d remaining bytes", n, len(data)-r.pos)
	}
	if r.err != nil {
		return r.err
	}
	// Pre-scan for the flat coordinate buffer (≤ 1 coordinate allocation per
	// model) and intern the site ids — thousands of reps typically carry a
	// handful of distinct sites, so repeated ids share one string each.
	var flat []float64
	if total, ok := scanRepCoords(*r, n, true); ok && total > 0 {
		flat = make([]float64, 0, total)
	}
	intern := make(map[string]string, 8)
	g.Reps = make([]GlobalRepresentative, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		rep := readRep(r, &flat)
		g.Reps = append(g.Reps, GlobalRepresentative{
			Representative: rep,
			SiteID:         r.strInterned(maxWireSiteID, intern),
			GlobalCluster:  cluster.ID(r.i32()),
		})
	}
	if r.err != nil {
		return r.err
	}
	if r.pos != len(data) {
		return fmt.Errorf("model: %d trailing bytes after global model", len(data)-r.pos)
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
