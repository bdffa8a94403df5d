package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
)

// --- section codec -------------------------------------------------------

// Encoded sizes of a section header and of the version-1 phase and budget
// bodies (docs/transport.md §1.1), pinned here independently of the
// encoders.
const (
	sectionHeaderBytes = 5
	sitePhasesV1Bytes  = 33
	siteBudgetV1Bytes  = 17
)

func TestSitePhasesSectionRoundTrip(t *testing.T) {
	want := SitePhases{
		Workers:  4,
		Cluster:  123 * time.Millisecond,
		Condense: 456 * time.Microsecond,
		Attempt:  3,
		Backoff:  78 * time.Millisecond,
	}
	data := sitePhasesSection.Append(nil, want)
	secs, err := parseSections(data)
	got := secs.phases
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || *got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestParseSectionsSkipsUnknown(t *testing.T) {
	phases := SitePhases{Workers: 2, Cluster: time.Second, Attempt: 1}
	// Unknown section before and after the known one: a newer client may
	// append sections this parser has never heard of.
	data := []byte{0x7f}
	data = binary.LittleEndian.AppendUint32(data, 3)
	data = append(data, 1, 2, 3)
	data = sitePhasesSection.Append(data, phases)
	data = append(data, 0x42)
	data = binary.LittleEndian.AppendUint32(data, 0)
	secs, err := parseSections(data)
	got := secs.phases
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || *got != phases {
		t.Fatalf("known section lost between unknown ones: %+v", got)
	}
}

func TestParseSectionsUnknownBodyVersionIgnored(t *testing.T) {
	// A known section id with an unknown body version must be skipped,
	// not fail the upload: the body-version byte is the forward-compat
	// hinge for incompatible layout changes.
	body := make([]byte, sitePhasesV1Bytes)
	body[0] = 99
	data := []byte{sitePhasesSection.ID}
	data = binary.LittleEndian.AppendUint32(data, uint32(len(body)))
	data = append(data, body...)
	secs, err := parseSections(data)
	got := secs.phases
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("unknown body version decoded anyway: %+v", got)
	}
}

func TestParseSectionsTruncated(t *testing.T) {
	full := sitePhasesSection.Append(nil, SitePhases{Workers: 1})
	for _, cut := range []int{1, sectionHeaderBytes - 1, sectionHeaderBytes + 2, len(full) - 1} {
		if _, err := parseSections(full[:cut]); err == nil {
			t.Errorf("truncation at %d bytes accepted", cut)
		}
	}
}

// --- upload sections on the wire ------------------------------------------

// TestUploadSections: the phase metrics a site attaches reach the server's
// round report intact, and an upload without sections (SendModel) is the
// same frame with an empty section area — the server fabricates nothing.
func TestUploadSections(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := testCfg()
	outcome, err := dbdc.LocalStep("site-1", blob(rng, 0, 0, 200), cfg)
	if err != nil {
		t.Fatal(err)
	}
	round := func(t *testing.T, send func(c *Client) (SendStats, error)) *RoundReport {
		t.Helper()
		srv, err := NewServer("127.0.0.1:0", 1, cfg, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		done := runRound(srv, RoundOptions{})
		stats, err := send(&Client{Addr: srv.Addr(), Timeout: 5 * time.Second, Retry: fastRetry(3)})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Attempts != 1 || stats.Log[0].Negotiated {
			t.Fatalf("unbudgeted upload: %+v", stats)
		}
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.report.Sites) != 1 || !r.report.Sites[0].OK {
			t.Fatalf("report: %s", r.report)
		}
		return r.report
	}

	t.Run("with phases", func(t *testing.T) {
		phases := &SitePhases{Workers: 4, Cluster: 3 * time.Millisecond, Condense: 5 * time.Microsecond}
		report := round(t, func(c *Client) (SendStats, error) {
			_, stats, err := c.SendModelTimed(outcome.Model, phases)
			return stats, err
		})
		p := report.Sites[0].Phases
		if p == nil {
			t.Fatalf("server dropped the metrics section:\n%s", report)
		}
		if p.Workers != 4 || p.Cluster != 3*time.Millisecond || p.Condense != 5*time.Microsecond || p.Attempt != 1 {
			t.Fatalf("phases corrupted in flight: %+v", p)
		}
		if !strings.Contains(report.String(), "workers=4") {
			t.Errorf("round report does not show the breakdown:\n%s", report)
		}
	})

	t.Run("no sections", func(t *testing.T) {
		report := round(t, func(c *Client) (SendStats, error) {
			_, stats, err := c.SendModel(outcome.Model)
			return stats, err
		})
		site := report.Sites[0]
		if site.Phases != nil || site.Budget != nil || site.Agg != nil {
			t.Fatalf("sectionless upload fabricated sections: %+v", site)
		}
		if want := frameHeaderSize + outcome.Model.EncodedSize(); site.Bytes != want {
			t.Fatalf("sectionless upload = %dB, want the bare model frame of %dB", site.Bytes, want)
		}
	})
}

// --- end-to-end networked round -----------------------------------------

// TestNetworkedRoundEndToEnd is the deployment-shaped integration test: a
// server expecting three named sites with quorum two, two healthy sites
// running the full RunSiteClient pipeline with intra-site parallelism, and
// one faulty site that can never reach the server. The round must complete,
// name the failed site, carry per-phase metrics for the healthy ones, and
// label exactly like the in-process orchestrator over the same data.
func TestNetworkedRoundEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := testCfg()
	cfg.SiteWorkers = 3
	sites := []dbdc.Site{
		{ID: "site-1", Points: append(blob(rng, 0, 0, 150), blob(rng, 3, 3, 80)...)},
		{ID: "site-2", Points: append(blob(rng, 0, 0, 120), blob(rng, -3, 2, 90)...)},
	}

	srv, err := NewServer("127.0.0.1:0", 3, cfg, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := runRound(srv, RoundOptions{
		Quorum:        2,
		AcceptTimeout: 1500 * time.Millisecond,
		ExpectedSites: []string{"site-1", "site-2", "site-3"},
	})

	// The faulty site points at a dead address: grab a port and close it.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	var wg sync.WaitGroup
	reports := make(map[string]*SiteReport)
	errs := make(map[string]error)
	var mu sync.Mutex
	for _, s := range sites {
		wg.Add(1)
		go func(s dbdc.Site) {
			defer wg.Done()
			c := &Client{Addr: srv.Addr(), Timeout: 5 * time.Second, Retry: fastRetry(3)}
			rep, err := RunSiteClient(c, s.ID, s.Points, cfg)
			mu.Lock()
			reports[s.ID], errs[s.ID] = rep, err
			mu.Unlock()
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := &Client{Addr: deadAddr, Timeout: 300 * time.Millisecond, Retry: fastRetry(2)}
		_, err := RunSiteClient(c, "site-3", blob(rng, 6, 6, 60), cfg)
		mu.Lock()
		errs["site-3"] = err
		mu.Unlock()
	}()
	wg.Wait()

	r := <-done
	if r.err != nil {
		t.Fatalf("round failed: %v\n%s", r.err, r.report)
	}
	if errs["site-1"] != nil || errs["site-2"] != nil {
		t.Fatalf("healthy sites failed: %v / %v", errs["site-1"], errs["site-2"])
	}
	if errs["site-3"] == nil {
		t.Fatal("unreachable site reported success")
	}
	if r.report.OK != 2 || r.report.Failed != 1 {
		t.Fatalf("report ok=%d failed=%d, want 2/1:\n%s", r.report.OK, r.report.Failed, r.report)
	}
	var deadOutcome *SiteOutcome
	for i := range r.report.Sites {
		if r.report.Sites[i].SiteID == "site-3" {
			deadOutcome = &r.report.Sites[i]
		}
	}
	if deadOutcome == nil || deadOutcome.OK || deadOutcome.Reason == "" {
		t.Fatalf("failed site not named in the report:\n%s", r.report)
	}

	// Per-phase metrics arrived from both healthy sites, server side …
	for _, s := range sites {
		var outcome *SiteOutcome
		for i := range r.report.Sites {
			if r.report.Sites[i].SiteID == s.ID {
				outcome = &r.report.Sites[i]
			}
		}
		if outcome == nil || !outcome.OK {
			t.Fatalf("site %s missing from the report:\n%s", s.ID, r.report)
		}
		if outcome.Phases == nil {
			t.Fatalf("site %s delivered no phases:\n%s", s.ID, r.report)
		}
		if outcome.Phases.Workers != 3 {
			t.Fatalf("site %s workers = %d, want 3", s.ID, outcome.Phases.Workers)
		}
		if outcome.Phases.Cluster <= 0 {
			t.Fatalf("site %s cluster phase not measured: %+v", s.ID, outcome.Phases)
		}
	}
	if max, n := r.report.MaxSitePhases(); n != 2 || max.Cluster <= 0 {
		t.Fatalf("MaxSitePhases = %+v over %d sites", max, n)
	}
	if r.report.GlobalStepDuration <= 0 {
		t.Fatal("global step not timed")
	}
	if r.report.UplinkBytes <= 0 || r.report.DownlinkBytes <= 0 {
		t.Fatalf("wire accounting missing: in=%d out=%d", r.report.UplinkBytes, r.report.DownlinkBytes)
	}
	// … and client side.
	for _, s := range sites {
		p := reports[s.ID].Phases
		if p.Workers != 3 || p.Cluster <= 0 || len(p.Attempts) == 0 {
			t.Fatalf("site %s client breakdown incomplete: %+v", s.ID, p)
		}
		if p.Total() <= 0 {
			t.Fatalf("site %s total phase cost %s", s.ID, p.Total())
		}
	}

	// The surviving sites must label exactly like the in-process
	// orchestrator over the same two sites and config.
	inproc, err := dbdc.Run(sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshalGlobal(t, r.global), mustMarshalGlobal(t, inproc.Global)) {
		t.Fatal("networked global model differs from the in-process run")
	}
	for _, s := range sites {
		want := inproc.Sites[s.ID].Labels
		got := reports[s.ID].Labels
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("site %s: label %d differs: %v vs %v", s.ID, i, got[i], want[i])
			}
		}
	}
}

// TestWriteReportsRewritesWhole: each write replaces the file, so a
// shorter report leaves nothing of a longer one behind.
func TestWriteReportsRewritesWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rounds.json")
	long := []*RoundReport{
		{Expect: 2, OK: 2, ForwardDuration: time.Millisecond, Sites: []SiteOutcome{{SiteID: "s1", OK: true}, {SiteID: "s2", OK: true}}},
		{Expect: 2, OK: 1, Failed: 1, Sites: []SiteOutcome{{SiteID: "s1", OK: true}, {SiteID: "s2", Reason: "timeout"}}},
	}
	short := []*RoundReport{{Expect: 1, Failed: 1, Sites: []SiteOutcome{{SiteID: "s3", Reason: "refused"}}}}
	if err := WriteReports(path, long); err != nil {
		t.Fatal(err)
	}
	if err := WriteReports(path, short); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(out, []byte("]\n")) {
		t.Fatalf("report does not end in one newline: %q", out)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var got []*RoundReport
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("report is not a JSON array of round reports: %v\n%s", err, out)
	}
	if dec.More() {
		t.Fatalf("report written more than once:\n%s", out)
	}
	if !reflect.DeepEqual(got, short) {
		t.Fatalf("file holds %s, want the last write only", out)
	}
}

// TestRoundReportJSON: dbdc-server and dbdc-agg write -report-json as the
// []*RoundReport itself, so every field must survive encoding/json — a
// site's phases, budget accounting and aggregation provenance, a failed
// site with its reason and a connection that failed before naming itself.
// Each kind of site round-trips alone, then all of them in one round with
// every round-level field set.
func TestRoundReportJSON(t *testing.T) {
	phased := SiteOutcome{
		SiteID: "site-1", Addr: "127.0.0.1:4001", OK: true, Attempts: 2, Bytes: 2048,
		Objects: 500, Reps: 40, Duration: 3 * time.Millisecond,
		Phases: &SitePhases{Workers: 4, Cluster: 9 * time.Millisecond, Condense: 700 * time.Microsecond, Attempt: 2, Backoff: 50 * time.Millisecond},
	}
	budgeted := SiteOutcome{
		SiteID: "site-2", Addr: "127.0.0.1:4002", OK: true, Attempts: 1, Bytes: 900,
		Objects: 400, Reps: 12, Duration: 2 * time.Millisecond,
		Budget:     &SiteBudget{RepBudget: 4, RepsDropped: 11, CoverageFraction: 0.9},
		Negotiated: true,
	}
	agg := SiteOutcome{
		SiteID: "agg-a", Addr: "127.0.0.1:4003", OK: true, Attempts: 1, Bytes: 1500,
		Objects: 1600, Reps: 30, Duration: 4 * time.Millisecond,
		Agg: &AggLevel{
			Level: 1, SitesExpected: 3, SitesOK: 2, SitesFailed: 1, RegionalClusters: 5, Objects: 1600,
			RoundDuration: 80 * time.Millisecond, GlobalStepDuration: time.Millisecond, CondenseDuration: 300 * time.Microsecond,
			Sources: []AggSource{{SiteID: "site-a0", Reps: 18}, {SiteID: "site-a1", Reps: 14}},
		},
	}
	failed := SiteOutcome{SiteID: "site-3", OK: false, Reason: "no connection before the round deadline"}
	unnamed := SiteOutcome{Addr: "127.0.0.1:4005", Attempts: 1, Reason: "read frame: unexpected EOF"}
	for _, tc := range []struct {
		name   string
		report *RoundReport
	}{
		{"phased", &RoundReport{Expect: 1, OK: 1, Conns: 2, Retried: 1, Sites: []SiteOutcome{phased}}},
		{"budgeted", &RoundReport{Expect: 1, OK: 1, Conns: 1, Sites: []SiteOutcome{budgeted}}},
		{"agg", &RoundReport{Expect: 1, OK: 1, Conns: 1, Sites: []SiteOutcome{agg}}},
		{"failed", &RoundReport{Expect: 1, Failed: 1, Sites: []SiteOutcome{failed}}},
		{"unnamed", &RoundReport{Expect: 1, Failed: 1, Conns: 1, Sites: []SiteOutcome{unnamed}}},
		{"round", &RoundReport{
			Expect: 5, Quorum: 3, OK: 3, Failed: 2, Retried: 1, Conns: 7,
			Sites:    []SiteOutcome{phased, budgeted, agg, failed, unnamed},
			Duration: 120 * time.Millisecond, GlobalStepDuration: 2 * time.Millisecond,
			BroadcastDuration: 800 * time.Microsecond, ForwardDuration: 5 * time.Millisecond,
			ObjectsTotal: 2500, RepsTotal: 82, UplinkBytes: 4448, DownlinkBytes: 3000,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := []*RoundReport{tc.report}
			raw, err := json.MarshalIndent(want, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			var got []*RoundReport
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round report did not survive JSON:\n%s", raw)
			}
		})
	}
}

// --- parallel differential across index kinds ----------------------------

// TestDifferentialSiteWorkers is the acceptance differential of the
// tentpole: for every neighborhood index kind, a networked round whose
// sites run the parallel DBSCAN kernel (SiteWorkers > 1) must produce a
// byte-identical global model and identical labelings to the sequential
// in-process orchestrator configured with the same SiteWorkers. Runs under
// -race in CI.
func TestDifferentialSiteWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short")
	}
	rng := rand.New(rand.NewSource(11))
	shared := blob(rng, 0, 0, 180)
	sites := make([]dbdc.Site, 3)
	for i := range sites {
		pts := append([]geom.Point(nil), shared[i*60:(i+1)*60]...)
		pts = append(pts, blob(rng, float64(3*i+2), -2, 70)...)
		for j := 0; j < 10; j++ {
			pts = append(pts, geom.Point{rng.Float64()*16 - 8, rng.Float64()*16 - 8})
		}
		sites[i] = dbdc.Site{ID: fmt.Sprintf("site-%d", i+1), Points: pts}
	}

	cfg := testCfg()
	cfg.SiteWorkers = 4

	seqCfg := cfg
	seqCfg.Sequential = true
	inproc, err := dbdc.Run(sites, seqCfg)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer("127.0.0.1:0", len(sites), cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := runRound(srv, RoundOptions{})
	var wg sync.WaitGroup
	labels := make([]cluster.Labeling, len(sites))
	errs := make([]error, len(sites))
	for i, s := range sites {
		wg.Add(1)
		go func(i int, s dbdc.Site) {
			defer wg.Done()
			rep, err := RunSite(srv.Addr(), s.ID, s.Points, cfg, 10*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			labels[i] = rep.Labels
		}(i, s)
	}
	wg.Wait()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("site %s: %v", sites[i].ID, err)
		}
	}
	if !bytes.Equal(mustMarshalGlobal(t, r.global), mustMarshalGlobal(t, inproc.Global)) {
		t.Fatal("parallel networked round and sequential in-process run diverged")
	}
	for i, s := range sites {
		want := inproc.Sites[s.ID].Labels
		if len(labels[i]) != len(want) {
			t.Fatalf("site %s: labeling lengths differ", s.ID)
		}
		for j := range want {
			if labels[i][j] != want[j] {
				t.Fatalf("site %s: label %d differs: %v vs %v", s.ID, j, labels[i][j], want[j])
			}
		}
	}
	// Every site ran four workers and said so on the wire.
	for _, outcome := range r.report.Sites {
		if outcome.Phases == nil || outcome.Phases.Workers != 4 {
			t.Fatalf("site %s phases = %+v, want workers=4", outcome.SiteID, outcome.Phases)
		}
	}
}
