package transport

import (
	"fmt"
	"time"

	"github.com/dbdc-go/dbdc/internal/wire"
)

// This file implements the per-phase cost reporting of the networked DBDC
// round: the optional metrics section a site attaches to its upload and the
// client-side phase breakdown.
//
// Wire layout of a MsgLocalModelTimed payload:
//
//	[ model.LocalModel bytes ][ section ]*
//
// in the section framing of internal/wire. The model encoding is
// self-delimiting (model.LocalModel.UnmarshalBinaryPrefix), so the section
// area starts wherever the model ends; a payload that ends with the model
// has no sections. Unknown section ids are skipped — a newer client can
// append sections an older server-side parser has never heard of without
// breaking the round. The whole payload sits inside one ordinary version-2
// frame and is covered by the frame CRC.

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

// sitePhasesSection is the per-phase site metrics section.
var sitePhasesSection = wire.Section[SitePhases]{
	ID:      0x01,
	Version: 1,
	Write: func(w *wire.Writer, p SitePhases) {
		w.U32(uint32(p.Workers))
		w.U64(uint64(p.Cluster))
		w.U64(uint64(p.Condense))
		w.U32(uint32(p.Attempt))
		w.U64(uint64(p.Backoff))
	},
	Read: func(r *wire.Reader) SitePhases {
		return SitePhases{
			Workers:  int(r.U32()),
			Cluster:  time.Duration(r.U64()),
			Condense: time.Duration(r.U64()),
			Attempt:  int(r.U32()),
			Backoff:  time.Duration(r.U64()),
		}
	},
}

// uploadSections holds the optional sections of an upload's section area —
// a full model's or a delta's — each nil when absent or unreadable.
type uploadSections struct {
	phases *SitePhases
	budget *SiteBudget
	agg    *AggLevel
	stream *StreamStats
}

// parseSections reads the section area of an upload (everything after the
// self-delimiting model or delta prefix) under the rules of
// wire.ReadSections: unknown or unreadable sections are ignored, a
// malformed section area is an error.
func parseSections(data []byte) (uploadSections, error) {
	var s uploadSections
	err := wire.ReadSections(data,
		sitePhasesSection.Into(&s.phases),
		siteBudgetSection.Into(&s.budget),
		aggLevelSection.Into(&s.agg),
		streamStatsSection.Into(&s.stream))
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
