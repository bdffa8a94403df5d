package transport

import (
	"fmt"
	"strings"
	"time"

	"github.com/dbdc-go/dbdc/internal/wire"
)

// This file implements the wire side of the hierarchical aggregation tree
// (internal/aggtree, docs/hierarchy.md): the provenance section an interior
// aggregator attaches to the condensed model it uploads to its parent. The
// condensed model itself is an ordinary model.LocalModel — the regional
// cluster ids ride in the representatives' LocalCluster field — so the
// parent's wire sees nothing new; the section adds the metadata a flat
// site-shaped upload cannot express: which level of the tree the upload
// comes from, which sources fed the region, and what the child-level round
// cost. Like every section it is skip-unknown: a server that does not know
// it treats the aggregator as a plain (large) site.

// maxAggSources bounds the decoded source list so a malformed count cannot
// make the parser allocate unbounded memory. A real aggregator has one
// source per child connection; 64k is far beyond any fan-in.
const maxAggSources = 1 << 16

// AggSource names one child that contributed to a condensed model: a site
// (or a deeper aggregator) and how many representatives of the regional
// model originated there.
type AggSource struct {
	// SiteID is the child's id on the aggregator's wire.
	SiteID string
	// Reps is the number of representatives the child contributed to the
	// regional model before any condensation budget was applied.
	Reps int
}

// AggLevel is the aggregation provenance an interior tree node reports
// alongside its condensed upload (the aggLevelSection trailer). The parent
// stores it in the site's SiteOutcome, which is how per-level round reports
// chain up the tree: every node sees its children's level summaries and
// forwards its own.
type AggLevel struct {
	// Level is the sender's height in the tree: 1 for a leaf aggregator
	// (its children are sites), one more than the highest child level
	// otherwise. Sites implicitly sit at level 0.
	Level int
	// SitesExpected, SitesOK and SitesFailed summarize the child round the
	// condensed model was derived from.
	SitesExpected, SitesOK, SitesFailed int
	// RegionalClusters is the cluster count of the regional global model.
	RegionalClusters int
	// Objects is the summed object cardinality behind the region's usable
	// site models.
	Objects int
	// RoundDuration is the child round's wall clock (collect + regional
	// global step + broadcast preparation), GlobalStepDuration the regional
	// clustering alone, CondenseDuration the GlobalModel→LocalModel
	// condensation.
	RoundDuration      time.Duration
	GlobalStepDuration time.Duration
	CondenseDuration   time.Duration
	// Sources lists the children whose representatives fed the regional
	// model, in the child round's deterministic (id-sorted) order.
	Sources []AggSource
}

// String renders a compact one-line summary for round-report logs.
func (a *AggLevel) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "level=%d children=%d/%d regional-clusters=%d objects=%d round=%s global=%s condense=%s",
		a.Level, a.SitesOK, a.SitesExpected, a.RegionalClusters, a.Objects,
		a.RoundDuration.Round(time.Millisecond),
		a.GlobalStepDuration.Round(time.Microsecond),
		a.CondenseDuration.Round(time.Microsecond))
	if len(a.Sources) > 0 {
		b.WriteString(" sources=")
		for i, s := range a.Sources {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%d", s.SiteID, s.Reps)
		}
	}
	return b.String()
}

// aggLevelSection is the aggregation provenance section of a condensed
// upload: tree level, child-round outcome, regional clustering stats, the
// child-level phase timings (collect, global step, condense) that let the
// root report a per-level cost decomposition, and per-source representative
// provenance. A malformed source list makes the section unreadable, so it is
// ignored: provenance is metadata, the model already decoded.
var aggLevelSection = wire.Section[AggLevel]{
	ID:      0x07,
	Version: 1,
	Write: func(w *wire.Writer, a AggLevel) {
		w.U32(uint32(a.Level))
		w.U32(uint32(a.SitesExpected))
		w.U32(uint32(a.SitesOK))
		w.U32(uint32(a.SitesFailed))
		w.U32(uint32(a.RegionalClusters))
		w.U64(uint64(a.Objects))
		w.U64(uint64(a.RoundDuration))
		w.U64(uint64(a.GlobalStepDuration))
		w.U64(uint64(a.CondenseDuration))
		w.U32(uint32(len(a.Sources)))
		for _, s := range a.Sources {
			w.Str16(s.SiteID)
			w.U32(uint32(s.Reps))
		}
	},
	Read: func(r *wire.Reader) AggLevel {
		a := AggLevel{
			Level:              int(r.U32()),
			SitesExpected:      int(r.U32()),
			SitesOK:            int(r.U32()),
			SitesFailed:        int(r.U32()),
			RegionalClusters:   int(r.U32()),
			Objects:            int(r.U64()),
			RoundDuration:      time.Duration(r.U64()),
			GlobalStepDuration: time.Duration(r.U64()),
			CondenseDuration:   time.Duration(r.U64()),
		}
		n := int(r.U32())
		if n > maxAggSources {
			r.Failf("transport: %d aggregation sources exceed the limit of %d", n, maxAggSources)
		}
		if n > 0 && r.Err() == nil {
			// A source is at least 6 bytes: bound the preallocation by
			// what the body can hold.
			a.Sources = make([]AggSource, 0, min(n, r.Len()/6))
		}
		for i := 0; i < n && r.Err() == nil; i++ {
			a.Sources = append(a.Sources, AggSource{SiteID: r.Str16(), Reps: int(r.U32())})
		}
		return a
	},
}

// AppendAggLevelSection appends the provenance section to dst. Exported for
// the aggregator's Client.AppendSections hook (internal/aggtree); the
// receiving server reports it in SiteOutcome.Agg.
func AppendAggLevelSection(dst []byte, a AggLevel) []byte {
	return aggLevelSection.Append(dst, a)
}
