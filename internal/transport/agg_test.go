package transport

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func testAggLevel() AggLevel {
	return AggLevel{
		Level:              2,
		SitesExpected:      3,
		SitesOK:            2,
		SitesFailed:        1,
		RegionalClusters:   7,
		Objects:            4500,
		RoundDuration:      1200 * time.Millisecond,
		GlobalStepDuration: 40 * time.Millisecond,
		CondenseDuration:   3 * time.Millisecond,
		Sources: []AggSource{
			{SiteID: "site-a0", Reps: 120},
			{SiteID: "agg-lower", Reps: 77},
		},
	}
}

func TestAggLevelSectionRoundTrip(t *testing.T) {
	want := testAggLevel()
	data := AppendAggLevelSection(nil, want)
	secs, err := parseSections(data)
	got := secs.agg
	if err != nil {
		t.Fatalf("parseSections: %v", err)
	}
	if got == nil {
		t.Fatal("agg section not returned")
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, want)
	}
}

func TestAggLevelSectionNoSources(t *testing.T) {
	want := AggLevel{Level: 1, SitesExpected: 2, SitesOK: 2}
	data := AppendAggLevelSection(nil, want)
	secs, err := parseSections(data)
	got := secs.agg
	if err != nil || got == nil {
		t.Fatalf("parseSections: %v, agg %v", err, got)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("round trip mismatch: got %+v want %+v", *got, want)
	}
}

// TestAggLevelSectionAlongsideOthers: the provenance section coexists with
// the phases and budget sections and unknown ids in one section area.
func TestAggLevelSectionAlongsideOthers(t *testing.T) {
	wantAgg := testAggLevel()
	wantPhases := SitePhases{Workers: 4, Cluster: time.Second}
	wantBudget := SiteBudget{RepBudget: 8, RepsDropped: 3, CoverageFraction: 0.9}
	data := sitePhasesSection.Append(nil, wantPhases)
	data = append(data, 0x7e, 3, 0, 0, 0, 1, 2, 3) // unknown section, skipped
	data = siteBudgetSection.Append(data, wantBudget)
	data = AppendAggLevelSection(data, wantAgg)
	secs, err := parseSections(data)
	phases, budget, agg := secs.phases, secs.budget, secs.agg
	if err != nil {
		t.Fatalf("parseSections: %v", err)
	}
	if phases == nil || *phases != wantPhases {
		t.Errorf("phases = %+v, want %+v", phases, wantPhases)
	}
	if budget == nil || *budget != wantBudget {
		t.Errorf("budget = %+v, want %+v", budget, wantBudget)
	}
	if agg == nil || !reflect.DeepEqual(*agg, wantAgg) {
		t.Errorf("agg = %+v, want %+v", agg, wantAgg)
	}
}

// TestAggLevelSectionMalformed: bad bodies are ignored (provenance is
// metadata), truncated section headers are an error (the frame passed its
// CRC, so truncation means a broken encoder).
func TestAggLevelSectionMalformed(t *testing.T) {
	full := AppendAggLevelSection(nil, testAggLevel())

	// Unknown body version: section ignored, walk succeeds.
	bad := append([]byte(nil), full...)
	bad[sectionHeaderBytes] = 99
	secs, err := parseSections(bad)
	agg := secs.agg
	if err != nil {
		t.Fatalf("unknown version errored the walk: %v", err)
	}
	if agg != nil {
		t.Fatal("unknown version was decoded")
	}

	// Source count pointing past the body: ignored, not an error.
	bad = AppendAggLevelSection(nil, AggLevel{Level: 1})
	bad[sectionHeaderBytes+53] = 0xff // claim 255 sources with an empty list
	if secs, err = parseSections(bad); err != nil || secs.agg != nil {
		t.Fatalf("oversized source count: agg %v err %v", secs.agg, err)
	}

	// Truncated mid-body: the section walk must reject it.
	for cut := 1; cut < len(full); cut++ {
		if _, err := parseSections(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestAggLevelString(t *testing.T) {
	a := testAggLevel()
	s := a.String()
	for _, want := range []string{"level=2", "children=2/3", "site-a0:120", "agg-lower:77"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

// FuzzAggSections fuzzes the section walker with aggregation provenance
// sections the way FuzzBudgetSections pins the budget section: no input may
// panic, and every accepted provenance section round-trips canonically
// through the appender.
func FuzzAggSections(f *testing.F) {
	f.Add(AppendAggLevelSection(nil, testAggLevel()))
	f.Add(AppendAggLevelSection(nil, AggLevel{Level: 1}))
	f.Add(AppendAggLevelSection(sitePhasesSection.Append(nil, SitePhases{Workers: 2}), testAggLevel()))
	f.Add(siteBudgetSection.Append(AppendAggLevelSection(nil, AggLevel{Level: 3,
		Sources: []AggSource{{SiteID: "x", Reps: 1}}}), SiteBudget{RepBudget: 1}))
	f.Add([]byte{})
	f.Add([]byte{aggLevelSection.ID, 0xff, 0xff, 0xff, 0xff}) // oversized body length
	f.Add(AppendAggLevelSection(nil, AggLevel{})[:9])         // truncated body
	seed := AppendAggLevelSection(nil, AggLevel{Level: 1})
	seed[sectionHeaderBytes] = 99 // unknown body version
	f.Add(seed)
	seed = AppendAggLevelSection(nil, AggLevel{Level: 1, Sources: []AggSource{{SiteID: "a", Reps: 2}}})
	seed[sectionHeaderBytes+53] = 0x40 // source count beyond the body
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		secs, err := parseSections(data)
		agg := secs.agg
		if err != nil || agg == nil {
			return
		}
		re := AppendAggLevelSection(nil, *agg)
		secs, rerr := parseSections(re)
		back := secs.agg
		if rerr != nil || back == nil {
			t.Fatalf("re-encoded provenance section rejected: %v", rerr)
		}
		if !reflect.DeepEqual(*back, *agg) {
			t.Fatalf("provenance section did not round-trip:\n got %+v\nwant %+v", *back, *agg)
		}
	})
}
