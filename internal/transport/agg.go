package transport

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"
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
const (
	// sectionAggLevel is the aggregation provenance section of a condensed
	// upload: tree level, child-round outcome, regional clustering stats,
	// per-source representative provenance, and the child-level phase
	// timings (collect, global step, condense) that let the root report a
	// per-level cost decomposition.
	sectionAggLevel byte = 0x07

	aggLevelVersion byte = 1

	// aggLevelFixedLen is the encoded size of a version-1 body before the
	// variable-length source list: version byte, level u32, sites expected/
	// ok/failed u32 each, regional clusters u32, objects u64, round ns u64,
	// global ns u64, condense ns u64, source count u32.
	aggLevelFixedLen = 1 + 4 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 4

	// maxAggSources bounds the decoded source list so a malformed count
	// cannot make the parser allocate unbounded memory. A real aggregator
	// has one source per child connection; 64k is far beyond any fan-in.
	maxAggSources = 1 << 16
)

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
// alongside its condensed upload (the sectionAggLevel trailer). The parent
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

// appendAggLevelSection appends the encoded provenance section to dst.
func appendAggLevelSection(dst []byte, a AggLevel) []byte {
	bodyLen := aggLevelFixedLen
	for _, s := range a.Sources {
		bodyLen += 2 + len(s.SiteID) + 4
	}
	dst = append(dst, sectionAggLevel)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bodyLen))
	dst = append(dst, aggLevelVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.Level))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.SitesExpected))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.SitesOK))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.SitesFailed))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.RegionalClusters))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a.Objects))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a.RoundDuration.Nanoseconds()))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a.GlobalStepDuration.Nanoseconds()))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a.CondenseDuration.Nanoseconds()))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.Sources)))
	for _, s := range a.Sources {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s.SiteID)))
		dst = append(dst, s.SiteID...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Reps))
	}
	return dst
}

// parseAggLevelBody decodes a version-1 (or newer, prefix-compatible)
// provenance body. ok is false on a short body, unknown version, or a
// malformed source list — the section is then ignored, it never fails the
// upload: provenance is metadata, the model already decoded.
func parseAggLevelBody(body []byte) (AggLevel, bool) {
	if len(body) < aggLevelFixedLen || body[0] != aggLevelVersion {
		return AggLevel{}, false
	}
	a := AggLevel{
		Level:              int(binary.LittleEndian.Uint32(body[1:5])),
		SitesExpected:      int(binary.LittleEndian.Uint32(body[5:9])),
		SitesOK:            int(binary.LittleEndian.Uint32(body[9:13])),
		SitesFailed:        int(binary.LittleEndian.Uint32(body[13:17])),
		RegionalClusters:   int(binary.LittleEndian.Uint32(body[17:21])),
		Objects:            int(binary.LittleEndian.Uint64(body[21:29])),
		RoundDuration:      time.Duration(binary.LittleEndian.Uint64(body[29:37])),
		GlobalStepDuration: time.Duration(binary.LittleEndian.Uint64(body[37:45])),
		CondenseDuration:   time.Duration(binary.LittleEndian.Uint64(body[45:53])),
	}
	n := int(binary.LittleEndian.Uint32(body[53:57]))
	if n < 0 || n > maxAggSources {
		return AggLevel{}, false
	}
	rest := body[aggLevelFixedLen:]
	if n > 0 {
		a.Sources = make([]AggSource, 0, min(n, len(rest)/6))
	}
	for i := 0; i < n; i++ {
		if len(rest) < 2 {
			return AggLevel{}, false
		}
		idLen := int(binary.LittleEndian.Uint16(rest[:2]))
		rest = rest[2:]
		if len(rest) < idLen+4 {
			return AggLevel{}, false
		}
		a.Sources = append(a.Sources, AggSource{
			SiteID: string(rest[:idLen]),
			Reps:   int(binary.LittleEndian.Uint32(rest[idLen : idLen+4])),
		})
		rest = rest[idLen+4:]
	}
	return a, true
}

// AppendAggLevelSection encodes the provenance section into dst in the
// established [id][u32 len][body] section format. Exported for the
// aggregator's Client.AppendSections hook (internal/aggtree); the receiving
// server reports it in SiteOutcome.Agg.
func AppendAggLevelSection(dst []byte, a AggLevel) []byte {
	return appendAggLevelSection(dst, a)
}
