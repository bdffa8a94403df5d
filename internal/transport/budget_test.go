package transport

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

// --- budget section + handshake codecs -----------------------------------

func TestSiteBudgetSectionRoundTrip(t *testing.T) {
	want := SiteBudget{RepBudget: 4, RepsDropped: 17, CoverageFraction: 0.875}
	data := appendSiteBudgetSection(nil, want)
	secs, err := parseSections(data)
	got := secs.budget
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || *got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	// Phases and budget coexisting in one section area, any order.
	phases := SitePhases{Workers: 2, Cluster: time.Second, Attempt: 1}
	data = appendSiteBudgetSection(appendSitePhasesSection(nil, phases), want)
	secs, err = parseSections(data)
	p, b := secs.phases, secs.budget
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || *p != phases || b == nil || *b != want {
		t.Fatalf("mixed sections: phases=%+v budget=%+v", p, b)
	}
}

func TestSiteBudgetSectionUnknownVersionIgnored(t *testing.T) {
	body := make([]byte, siteBudgetBodyLen)
	body[0] = 99
	data := []byte{sectionSiteBudget}
	data = binary.LittleEndian.AppendUint32(data, uint32(len(body)))
	data = append(data, body...)
	secs, err := parseSections(data)
	got := secs.budget
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("unknown body version decoded anyway: %+v", got)
	}
}

func TestHelloCodecRoundTrip(t *testing.T) {
	b, err := parseHello(encodeHello(7))
	if err != nil || b != 7 {
		t.Fatalf("hello round trip: budget=%d err=%v", b, err)
	}
	// Empty hello: valid, budget unknown.
	if b, err := parseHello(nil); err != nil || b != 0 {
		t.Fatalf("empty hello: budget=%d err=%v", b, err)
	}
	// Unknown sections are skipped.
	data := []byte{0x7f}
	data = binary.LittleEndian.AppendUint32(data, 2)
	data = append(data, 1, 2)
	data = append(data, encodeHello(3)...)
	if b, err := parseHello(data); err != nil || b != 3 {
		t.Fatalf("hello with unknown section: budget=%d err=%v", b, err)
	}
	// Truncation is an encoder bug, not a degrade.
	full := encodeHello(3)
	if _, err := parseHello(full[:len(full)-1]); err == nil {
		t.Fatal("truncated hello accepted")
	}
}

func TestHelloAckCodecRoundTrip(t *testing.T) {
	for _, capBytes := range []int64{1, 4096, 1 << 40} {
		got, err := parseHelloAck(encodeHelloAck(capBytes))
		if err != nil || got != capBytes {
			t.Fatalf("ack round trip for %d: got=%d err=%v", capBytes, got, err)
		}
	}
	// No constraint encodes as an empty payload.
	if p := encodeHelloAck(0); len(p) != 0 {
		t.Fatalf("cap 0 encoded %d bytes", len(p))
	}
	if got, err := parseHelloAck(nil); err != nil || got != 0 {
		t.Fatalf("empty ack: cap=%d err=%v", got, err)
	}
}

// --- handshake ------------------------------------------------------------

// budgetedOutcome clusters a two-blob site with the given per-cluster
// budget.
func budgetedOutcome(t *testing.T, siteID string, seed int64, budget int) (*dbdc.LocalOutcome, dbdc.Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := append(blob(rng, 0, 0, 150), blob(rng, 4, 0, 150)...)
	cfg := testCfg()
	cfg.RepBudget = budget
	outcome, err := dbdc.LocalStep(siteID, pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return outcome, cfg
}

// TestBudgetHandshake: a budgeted upload handshakes in its one attempt, and
// the server's round report carries the negotiation state and the budget
// accounting.
func TestBudgetHandshake(t *testing.T) {
	outcome, _ := budgetedOutcome(t, "site-1", 7, 2)
	phases := &SitePhases{Workers: 2, Cluster: time.Millisecond}
	srv, err := NewServer("127.0.0.1:0", 1, testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := runRound(srv, RoundOptions{})
	c := &Client{Addr: srv.Addr(), Timeout: 5 * time.Second, Retry: RetryPolicy{MaxAttempts: 1}}
	_, stats, neg, err := c.SendModelBudgeted(outcome, phases)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempts != 1 || !stats.Log[0].Negotiated {
		t.Fatalf("handshake took more than its one attempt: %+v", stats)
	}
	if !neg.Acked || neg.MaxUploadBytes != 0 || neg.Budget != 2 {
		t.Fatalf("negotiation outcome: %+v", neg)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	site := r.report.Sites[0]
	if !site.Negotiated || site.Budget == nil {
		t.Fatalf("server lost the negotiation state: %+v", site)
	}
	if site.Budget.RepBudget != 2 {
		t.Fatalf("server-side budget accounting: %+v", site.Budget)
	}
	if !strings.Contains(r.report.String(), "budget=2") ||
		!strings.Contains(r.report.String(), "negotiated") {
		t.Errorf("round report does not show the budget:\n%s", r.report)
	}
}

// TestBudgetCapShrink: a server advertising a tight byte cap forces the
// client to shrink its budget below the configured one, and the upload it
// finally sends fits under the cap (header included).
func TestBudgetCapShrink(t *testing.T) {
	outcome, _ := budgetedOutcome(t, "site-1", 11, 0) // unbudgeted reference
	fullSize := int64(frameHeaderSize + outcome.Model.EncodedSize())

	outcome, _ = budgetedOutcome(t, "site-1", 11, 50) // generous budget
	srv, err := NewServer("127.0.0.1:0", 1, testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	capBytes := fullSize * 2 / 3
	srv.SetMaxUploadBytes(capBytes)
	done := runRound(srv, RoundOptions{})

	c := &Client{Addr: srv.Addr(), Timeout: 5 * time.Second, Retry: RetryPolicy{MaxAttempts: 1}}
	global, stats, neg, err := c.SendModelBudgeted(outcome, &SitePhases{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if global == nil {
		t.Fatal("nil global model")
	}
	if !neg.Acked || neg.MaxUploadBytes != capBytes {
		t.Fatalf("cap not learned: %+v", neg)
	}
	if neg.Budget >= 50 || neg.Budget < 1 {
		t.Fatalf("budget did not shrink under the cap: %+v", neg)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	site := r.report.Sites[0]
	if !site.OK {
		t.Fatalf("capped upload rejected: %s", r.report)
	}
	if site.Budget == nil || site.Budget.RepBudget != neg.Budget {
		t.Fatalf("server-side budget %+v, client shipped %d", site.Budget, neg.Budget)
	}
	// The model frame obeyed the cap. site.Bytes includes the hello frame
	// read on the same connection; the upload alone is what the cap binds,
	// and the server would have rejected a violation.
	_ = stats
	if r.report.UplinkBytes <= 0 {
		t.Fatalf("uplink accounting: %+v", r.report)
	}

	t.Run("impossible-cap", func(t *testing.T) {
		srv2, err := NewServer("127.0.0.1:0", 1, testCfg(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer srv2.Close()
		srv2.SetMaxUploadBytes(frameHeaderSize + 8) // nothing fits
		done2 := runRound(srv2, RoundOptions{AcceptTimeout: 2 * time.Second})
		c2 := &Client{Addr: srv2.Addr(), Timeout: 5 * time.Second, Retry: fastRetry(3)}
		_, _, _, err = c2.SendModelBudgeted(outcome, nil)
		if err == nil {
			t.Fatal("impossible cap accepted")
		}
		if Retryable(err) {
			t.Fatalf("impossible cap must be permanent, got retryable: %v", err)
		}
		<-done2
	})
}

// TestBudgetedRoundE2E is the mixed networked round: three sites with
// different budgets — one of them unbudgeted, so it never handshakes —
// against a quorum-2 server. Asserts the negotiation
// outcome and uplink accounting per site, and that the global labels match
// an in-process pipeline run with the same per-site budgets.
func TestBudgetedRoundE2E(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sitePts := map[string][]geom.Point{
		"site-a": append(blob(rng, 0, 0, 150), blob(rng, 4, 0, 150)...),
		"site-b": append(blob(rng, 0, 0.5, 150), blob(rng, 4, 0.5, 150)...),
		"site-c": append(blob(rng, 2, 0.25, 150), blob(rng, 6, 0, 150)...),
	}
	budgets := map[string]int{"site-a": 3, "site-b": 1, "site-c": 0} // site-c is unbudgeted

	srv, err := NewServer("127.0.0.1:0", 3, testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := runRound(srv, RoundOptions{Quorum: 2, ExpectedSites: []string{"site-a", "site-b", "site-c"}})

	type siteResult struct {
		id     string
		report *SiteReport
		err    error
	}
	results := make(chan siteResult, len(sitePts))
	for id, pts := range sitePts {
		go func(id string, pts []geom.Point) {
			cfg := testCfg()
			cfg.RepBudget = budgets[id]
			c := &Client{Addr: srv.Addr(), Timeout: 5 * time.Second, Retry: fastRetry(3)}
			rep, err := RunSiteClient(c, id, pts, cfg)
			results <- siteResult{id, rep, err}
		}(id, pts)
	}
	siteReports := make(map[string]*SiteReport, len(sitePts))
	for range sitePts {
		r := <-results
		if r.err != nil {
			t.Fatalf("site %s: %v", r.id, r.err)
		}
		siteReports[r.id] = r.report
	}
	rr := <-done
	if rr.err != nil {
		t.Fatal(rr.err)
	}
	report := rr.report
	if report.OK != 3 || report.Failed != 0 {
		t.Fatalf("round: %s", report)
	}

	// Per-site negotiation outcome and uplink accounting.
	var uplinkSum int
	for _, site := range report.Sites {
		uplinkSum += site.Bytes
		switch site.SiteID {
		case "site-a", "site-b":
			if !site.Negotiated || site.Budget == nil {
				t.Fatalf("budgeted site %s did not negotiate: %+v", site.SiteID, site)
			}
			if site.Budget.RepBudget != budgets[site.SiteID] {
				t.Fatalf("site %s shipped budget %d, configured %d",
					site.SiteID, site.Budget.RepBudget, budgets[site.SiteID])
			}
			if cov := site.Budget.CoverageFraction; cov <= 0 || cov > 1 {
				t.Fatalf("site %s coverage %f", site.SiteID, cov)
			}
		case "site-c":
			if site.Negotiated || site.Budget != nil {
				t.Fatalf("unbudgeted site fabricated budget state: %+v", site)
			}
		}
		if neg := siteReports[site.SiteID].Negotiation; site.SiteID != "site-c" {
			if !neg.Acked || neg.Budget != budgets[site.SiteID] {
				t.Fatalf("site %s client-side negotiation: %+v", site.SiteID, neg)
			}
		}
	}
	if report.UplinkBytes != uplinkSum {
		t.Fatalf("UplinkBytes %d != per-site sum %d", report.UplinkBytes, uplinkSum)
	}
	// The budget must actually bite: the tightly budgeted site uploads
	// fewer bytes than the unbudgeted one (similar data on every site).
	bytesOf := func(id string) int {
		for _, s := range report.Sites {
			if s.SiteID == id {
				return s.Bytes
			}
		}
		return -1
	}
	if bytesOf("site-b") >= bytesOf("site-c") {
		t.Fatalf("budget 1 upload (%dB) not below unbudgeted (%dB)",
			bytesOf("site-b"), bytesOf("site-c"))
	}

	// The networked labels must match an in-process pipeline with the same
	// per-site budgets: LocalStep per site, GlobalStep over the models
	// sorted by site id, RelabelSite per site.
	ids := []string{"site-a", "site-b", "site-c"}
	outcomes := make(map[string]*dbdc.LocalOutcome, len(ids))
	var models []*model.LocalModel
	for _, id := range ids {
		cfg := testCfg()
		cfg.RepBudget = budgets[id]
		o, err := dbdc.LocalStep(id, sitePts[id], cfg)
		if err != nil {
			t.Fatal(err)
		}
		outcomes[id] = o
		models = append(models, o.Model)
	}
	wantGlobal, err := dbdc.GlobalStep(models, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		wantLabels, _, err := dbdc.RelabelSite(outcomes[id], wantGlobal)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(siteReports[id].Labels, wantLabels) {
			t.Fatalf("site %s: networked labels differ from in-process budgeted run", id)
		}
	}

	// The serving side's classifier parity over a budgeted global model is
	// covered in internal/serve (TestClassifierBudgetedModelParity) — serve
	// imports transport, so the differential lives there.
}

// TestBudgetZeroWireIdentity: a RunSiteClient round with RepBudget unset
// must put exactly the plain timed upload on the wire — no handshake, no
// budget section.
func TestBudgetZeroWireIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := append(blob(rng, 0, 0, 150), blob(rng, 4, 0, 150)...)
	cfg := testCfg() // RepBudget unset

	run := func() (*SiteReport, *RoundReport) {
		srv, err := NewServer("127.0.0.1:0", 1, cfg, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		done := runRound(srv, RoundOptions{})
		c := &Client{Addr: srv.Addr(), Timeout: 5 * time.Second}
		rep, err := RunSiteClient(c, "site-1", pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		return rep, r.report
	}
	rep, report := run()
	if rep.Negotiation.Acked || rep.Phases.Attempts[0].Negotiated {
		t.Fatalf("unbudgeted round attempted a handshake: %+v", rep.Negotiation)
	}
	site := report.Sites[0]
	if site.Negotiated || site.Budget != nil {
		t.Fatalf("unbudgeted round carried budget state: %+v", site)
	}
	// The wire cost equals the sectioned-but-unbudgeted frame: model bytes
	// plus exactly one phases section, nothing else.
	outcome, err := dbdc.LocalStep("site-1", pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := frameHeaderSize + outcome.Model.EncodedSize() + sectionHeaderSize + sitePhasesBodyLen
	if site.Bytes != wantBytes {
		t.Fatalf("unbudgeted upload = %dB, pre-budget wire format = %dB", site.Bytes, wantBytes)
	}
}

// FuzzBudgetSections fuzzes every parser the budget feature added — the
// upload section walker with budget sections, the hello and the ack — the
// way FuzzReadFrame pins the frame decoder: no input may panic, and every
// accepted section area round-trips through the appenders canonically.
func FuzzBudgetSections(f *testing.F) {
	f.Add(appendSiteBudgetSection(nil, SiteBudget{RepBudget: 4, RepsDropped: 9, CoverageFraction: 0.75}))
	f.Add(appendSitePhasesSection(appendSiteBudgetSection(nil, SiteBudget{RepBudget: 1}), SitePhases{Workers: 2}))
	f.Add(encodeHello(8))
	f.Add(encodeHelloAck(1 << 20))
	f.Add([]byte{})
	f.Add([]byte{sectionSiteBudget, 0xff, 0xff, 0xff, 0xff}) // oversized body length
	f.Add(appendSiteBudgetSection(nil, SiteBudget{})[:6])    // truncated body
	f.Add([]byte{0x7f, 0, 0, 0, 0})                          // unknown empty section
	seed := appendSiteBudgetSection(nil, SiteBudget{RepBudget: 2})
	seed[5] = 99 // unknown body version
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		secs, err := parseSections(data)
		budget := secs.budget
		if err == nil && budget != nil {
			// Accepted budget sections must round-trip canonically
			// through the appender.
			re := appendSiteBudgetSection(nil, *budget)
			resecs, rerr := parseSections(re)
			back := resecs.budget
			if rerr != nil || back == nil {
				t.Fatalf("re-encoded budget section rejected: %v", rerr)
			}
			same := *back == *budget ||
				// NaN coverage survives the trip but breaks ==.
				(back.RepBudget == budget.RepBudget && back.RepsDropped == budget.RepsDropped &&
					back.CoverageFraction != back.CoverageFraction && budget.CoverageFraction != budget.CoverageFraction)
			if !same {
				t.Fatalf("budget section did not round-trip: %+v vs %+v", back, budget)
			}
		}
		if b, herr := parseHello(data); herr == nil && b != 0 {
			if got, rerr := parseHello(encodeHello(b)); rerr != nil || got != b {
				t.Fatalf("hello did not round-trip: %d vs %d (%v)", got, b, rerr)
			}
		}
		if capBytes, aerr := parseHelloAck(data); aerr == nil && capBytes > 0 {
			if got, rerr := parseHelloAck(encodeHelloAck(capBytes)); rerr != nil || got != capBytes {
				t.Fatalf("ack did not round-trip: %d vs %d (%v)", got, capBytes, rerr)
			}
		}
	})
}

// TestBudgetBenchReportMetrics: budgeted sites surface their accounting in
// the benchio conversion so benchdiff can track coverage and bytes.
func TestBudgetBenchReportMetrics(t *testing.T) {
	r := &RoundReport{
		Sites: []SiteOutcome{{
			SiteID: "s1", OK: true, Bytes: 1234,
			Budget: &SiteBudget{RepBudget: 4, RepsDropped: 11, CoverageFraction: 0.9},
		}},
	}
	rep := r.BenchReport("test", "")
	var entry map[string]float64
	for _, e := range rep.Entries {
		if e.Name == "NetworkedRound/site=s1" {
			entry = e.Metrics
		}
	}
	if entry == nil {
		t.Fatalf("no site entry in %+v", rep.Entries)
	}
	if entry["rep-budget"] != 4 || entry["reps-dropped"] != 11 || entry["coverage-fraction"] != 0.9 {
		t.Fatalf("budget metrics missing: %+v", entry)
	}
	if fmt.Sprintf("%v", entry["upload-bytes"]) != "1234" {
		t.Fatalf("upload-bytes: %+v", entry)
	}
}
