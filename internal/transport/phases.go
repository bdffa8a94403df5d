package transport

import (
	"encoding/binary"
	"fmt"
	"time"
)

// This file implements the per-phase cost reporting of the networked DBDC
// round: the optional metrics section a site attaches to its upload and the
// client-side phase breakdown.
//
// Wire layout of a MsgLocalModelTimed payload:
//
//	[ model.LocalModel bytes ][ section ]*
//
// where every section is
//
//	[0]    section id (1 byte)
//	[1:5]  body length, uint32 little-endian
//	[5:..] body
//
// The model encoding is self-delimiting (model.LocalModel.
// UnmarshalBinaryPrefix), so the section area starts wherever the model
// ends; a payload that ends with the model has no sections. Unknown section
// ids are skipped — a newer client can append sections an older server-side
// parser has never heard of without breaking the round. The whole payload
// sits inside one ordinary version-2 frame and is covered by the frame CRC.
const (
	// sectionSitePhases is the per-phase site metrics section.
	sectionSitePhases byte = 0x01

	// sectionHeaderSize is id byte + body length.
	sectionHeaderSize = 5

	// sitePhasesVersion versions the section body; parsers skip bodies
	// with a version they do not know.
	sitePhasesVersion byte = 1

	// sitePhasesBodyLen is the encoded size of a version-1 body: version
	// byte, workers u32, cluster ns u64, condense ns u64, attempt u32,
	// backoff ns u64. Newer versions may append fields; version-1 parsers
	// read their prefix and ignore the rest.
	sitePhasesBodyLen = 1 + 4 + 8 + 8 + 4 + 8
)

// SitePhases is the per-phase breakdown a site reports alongside its model
// upload (the metrics section of a MsgLocalModelTimed frame). All costs are
// client-measured; the server adds its own read duration, global-step and
// broadcast costs to the round report.
type SitePhases struct {
	// Workers is the intra-site DBSCAN worker count the site ran with
	// (Config.SiteWorkers resolved).
	Workers int
	// Cluster is the cost of the site's local DBSCAN run.
	Cluster time.Duration
	// Condense is the cost of representative condensation.
	Condense time.Duration
	// Attempt is the 1-based upload attempt this frame belongs to.
	Attempt int
	// Backoff is the total retry backoff the site slept before this
	// attempt.
	Backoff time.Duration
}

// appendSitePhasesSection appends the encoded metrics section to dst.
func appendSitePhasesSection(dst []byte, p SitePhases) []byte {
	dst = append(dst, sectionSitePhases)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(sitePhasesBodyLen))
	dst = append(dst, sitePhasesVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Workers))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Cluster.Nanoseconds()))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Condense.Nanoseconds()))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Attempt))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Backoff.Nanoseconds()))
	return dst
}

// parseSitePhasesBody decodes a version-1 (or newer, prefix-compatible)
// section body. ok is false when the body is too short or carries an
// unknown version — the caller then ignores the section, it never fails
// the upload.
func parseSitePhasesBody(body []byte) (SitePhases, bool) {
	if len(body) < sitePhasesBodyLen || body[0] != sitePhasesVersion {
		return SitePhases{}, false
	}
	return SitePhases{
		Workers:  int(binary.LittleEndian.Uint32(body[1:5])),
		Cluster:  time.Duration(binary.LittleEndian.Uint64(body[5:13])),
		Condense: time.Duration(binary.LittleEndian.Uint64(body[13:21])),
		Attempt:  int(binary.LittleEndian.Uint32(body[21:25])),
		Backoff:  time.Duration(binary.LittleEndian.Uint64(body[25:33])),
	}, true
}

// uploadSections holds the optional sections of an upload's section area —
// a full model's or a delta's — each nil when absent or unreadable.
type uploadSections struct {
	phases *SitePhases
	budget *SiteBudget
	agg    *AggLevel
	stream *StreamStats
}

// parseSections walks the section area of an upload (everything after the
// self-delimiting model or delta prefix) and decodes the sections it knows.
// Unknown sections are skipped (walkSections); a malformed section area
// (truncated header or body) is an error — the bytes passed the frame CRC,
// so truncation here means a broken encoder, not line noise.
func parseSections(data []byte) (uploadSections, error) {
	var s uploadSections
	err := walkSections(data, func(id byte, body []byte) {
		switch id {
		case sectionSitePhases:
			if p, ok := parseSitePhasesBody(body); ok {
				s.phases = &p
			}
		case sectionSiteBudget:
			if b, ok := parseSiteBudgetBody(body); ok {
				s.budget = &b
			}
		case sectionAggLevel:
			if a, ok := parseAggLevelBody(body); ok {
				s.agg = &a
			}
		case sectionStreamStats:
			if st, ok := parseStreamStatsBody(body); ok {
				s.stream = &st
			}
		}
	})
	if err != nil {
		return uploadSections{}, err
	}
	return s, nil
}

// AttemptStats describes one connection attempt of a SendModel call.
type AttemptStats struct {
	// Attempt is the 1-based attempt number.
	Attempt int
	// Negotiated reports whether the attempt opened with the
	// MsgHello/MsgHelloAck budget handshake.
	Negotiated bool
	// Backoff is the retry delay slept before this attempt (0 for the
	// first).
	Backoff time.Duration
	// Dial is the connection setup cost.
	Dial time.Duration
	// Upload is the time spent writing the model frame.
	Upload time.Duration
	// ServerWait is the time between the completed upload and the first
	// reply byte — the site-visible server-side cost (collecting the
	// remaining sites, the global clustering).
	ServerWait time.Duration
	// Download is the time spent receiving the rest of the reply.
	Download time.Duration
	// BytesSent and BytesReceived are this attempt's wire costs.
	BytesSent     int
	BytesReceived int
	// Err is the failure, "" on success.
	Err string
}

// PhaseBreakdown is the client-side per-phase cost of one full networked
// site round (RunSiteClient): the paper's distributed-runtime decomposition
// measured over the wire.
type PhaseBreakdown struct {
	// Workers is the intra-site DBSCAN worker count.
	Workers int
	// Cluster and Condense are the LocalStep phases.
	Cluster  time.Duration
	Condense time.Duration
	// Upload, ServerWait and Download are summed over all attempts.
	Upload     time.Duration
	ServerWait time.Duration
	Download   time.Duration
	// Backoff is the total retry backoff slept.
	Backoff time.Duration
	// Relabel is the cost of applying the global model locally.
	Relabel time.Duration
	// Attempts is the per-attempt log, including failed ones.
	Attempts []AttemptStats
}

// Total returns the summed wall-clock cost of all phases.
func (p *PhaseBreakdown) Total() time.Duration {
	return p.Cluster + p.Condense + p.Upload + p.ServerWait + p.Download + p.Backoff + p.Relabel
}

// String renders a compact one-line summary.
func (p *PhaseBreakdown) String() string {
	r := time.Millisecond
	if p.Total() < 10*time.Millisecond {
		r = time.Microsecond
	}
	return fmt.Sprintf("workers=%d cluster=%s condense=%s upload=%s wait=%s download=%s backoff=%s relabel=%s",
		p.Workers, p.Cluster.Round(r), p.Condense.Round(r), p.Upload.Round(r),
		p.ServerWait.Round(r), p.Download.Round(r), p.Backoff.Round(r), p.Relabel.Round(r))
}
