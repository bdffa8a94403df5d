package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	lib "github.com/dbdc-go/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// runMainEnv makes a re-executed test binary run the command instead of
// the tests, so the tests see its real exit code and stdout.
const runMainEnv = "DBDC_SERVER_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command is a running dbdc-server.
type command struct {
	cmd    *exec.Cmd
	stdout bytes.Buffer
	stderr bytes.Buffer
	copied chan struct{}
	addr   string
}

// start runs dbdc-server with args, killed after 30s at the latest, and
// returns once it announced its listen address.
func start(t *testing.T, args ...string) *command {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	c := &command{cmd: exec.CommandContext(ctx, os.Args[0], args...), copied: make(chan struct{})}
	c.cmd.Env = append(os.Environ(), runMainEnv+"=1")
	c.cmd.Stdout = &c.stdout
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		c.wait()
	})
	sc := bufio.NewScanner(stderr)
	for c.addr == "" && sc.Scan() {
		c.stderr.WriteString(sc.Text() + "\n")
		if rest, ok := strings.CutPrefix(sc.Text(), "dbdc-server: listening on "); ok {
			c.addr, _, _ = strings.Cut(rest, " ")
		}
	}
	go func() {
		io.Copy(&c.stderr, stderr)
		close(c.copied)
	}()
	if c.addr == "" {
		<-c.copied
		t.Fatalf("dbdc-server announced no listen address:\n%s", c.stderr.String())
	}
	return c
}

// wait waits for the command to exit and returns its exit code.
func (c *command) wait() int {
	<-c.copied
	if c.cmd.ProcessState == nil {
		c.cmd.Wait()
	}
	return c.cmd.ProcessState.ExitCode()
}

// decodeReports decodes stdout as exactly one JSON array of round reports.
func decodeReports(t *testing.T, out []byte) []*transport.RoundReport {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(out))
	var reports []*transport.RoundReport
	if err := dec.Decode(&reports); err != nil {
		t.Fatalf("report is not a JSON array of round reports: %v\n%s", err, out)
	}
	if err := dec.Decode(new(any)); !errors.Is(err, io.EOF) {
		t.Fatalf("report written more than once:\n%s", out)
	}
	return reports
}

// requireMissingSite checks that the report names site id as failed with
// the accept-deadline reason.
func requireMissingSite(t *testing.T, r *transport.RoundReport, id string) {
	t.Helper()
	if r.OK != 0 || r.Failed != 1 || len(r.Sites) != 1 {
		t.Fatalf("round ok=%d failed=%d sites=%+v, want one failed site", r.OK, r.Failed, r.Sites)
	}
	if s := r.Sites[0]; s.SiteID != id || s.OK || s.Reason != "no connection before the round deadline" {
		t.Fatalf("failed site %+v, want %s without a connection", s, id)
	}
}

func runSite(t *testing.T, addr string) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 60)
	for i := range pts {
		pts[i] = geom.Point{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3}
	}
	cfg := lib.Config{Local: lib.Params{Eps: 1, MinPts: 4}}
	// The retry covers a site that reconnects before the next round
	// listens, as dbdc-site does.
	c := &transport.Client{Addr: addr, Timeout: 5 * time.Second, Retry: transport.DefaultRetryPolicy()}
	if _, err := transport.RunSiteClient(c, "s1", pts, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestReportJSONStdoutOnFailedRound: a round that fails before the last
// still prints the report to stdout, its missing site named, before the
// command exits 1.
func TestReportJSONStdoutOnFailedRound(t *testing.T) {
	c := start(t, "-addr", "127.0.0.1:0", "-eps", "1", "-minpts", "4", "-sites", "1", "-rounds", "2",
		"-accept-timeout", "1s", "-expect-sites", "s1", "-report-json", "-")
	if code := c.wait(); code != 1 {
		t.Fatalf("exit code %d, want 1:\n%s", code, c.stderr.String())
	}
	reports := decodeReports(t, c.stdout.Bytes())
	if len(reports) != 1 {
		t.Fatalf("%d round reports, want 1", len(reports))
	}
	requireMissingSite(t, reports[0], "s1")
}

// TestReportJSONStdoutAfterLastRound: with "-" the report goes to stdout
// once, after the last round, holding every round.
func TestReportJSONStdoutAfterLastRound(t *testing.T) {
	c := start(t, "-addr", "127.0.0.1:0", "-eps", "1", "-minpts", "4", "-sites", "1", "-rounds", "2",
		"-accept-timeout", "10s", "-report-json", "-")
	runSite(t, c.addr)
	runSite(t, c.addr)
	if code := c.wait(); code != 0 {
		t.Fatalf("exit code %d, want 0:\n%s", code, c.stderr.String())
	}
	reports := decodeReports(t, c.stdout.Bytes())
	if len(reports) != 2 {
		t.Fatalf("%d round reports, want 2", len(reports))
	}
	for i, r := range reports {
		if r.OK != 1 || len(r.Sites) != 1 || r.Sites[0].SiteID != "s1" || r.Sites[0].Phases == nil {
			t.Fatalf("round %d: ok=%d sites=%+v, want s1 with its phases", i+1, r.OK, r.Sites)
		}
	}
}

// TestReportJSONFileKeepsRoundsBeforeFailure: the file is rewritten after
// every round, so when round 2 fails it holds round 1 and the failed round,
// and stdout stays empty.
func TestReportJSONFileKeepsRoundsBeforeFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rounds.json")
	c := start(t, "-addr", "127.0.0.1:0", "-eps", "1", "-minpts", "4", "-sites", "1", "-rounds", "2",
		"-accept-timeout", "2s", "-expect-sites", "s1", "-report-json", path)
	runSite(t, c.addr)
	if code := c.wait(); code != 1 {
		t.Fatalf("exit code %d, want 1:\n%s", code, c.stderr.String())
	}
	if c.stdout.Len() != 0 {
		t.Fatalf("stdout holds %q, want nothing", c.stdout.String())
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reports := decodeReports(t, out)
	if len(reports) != 2 {
		t.Fatalf("%d round reports, want 2", len(reports))
	}
	if r := reports[0]; r.OK != 1 || r.Failed != 0 {
		t.Fatalf("round 1: ok=%d failed=%d, want 1/0", r.OK, r.Failed)
	}
	requireMissingSite(t, reports[1], "s1")
}

// TestWriteReportRewritesWhole: each write replaces the file, so a shorter
// report leaves nothing of a longer one behind.
func TestWriteReportRewritesWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rounds.json")
	long := []*transport.RoundReport{
		{Expect: 2, OK: 2, Sites: []transport.SiteOutcome{{SiteID: "s1", OK: true}, {SiteID: "s2", OK: true}}},
		{Expect: 2, OK: 1, Failed: 1, Sites: []transport.SiteOutcome{{SiteID: "s1", OK: true}, {SiteID: "s2", Reason: "timeout"}}},
	}
	short := []*transport.RoundReport{{Expect: 1, Failed: 1, Sites: []transport.SiteOutcome{{SiteID: "s3", Reason: "refused"}}}}
	if err := writeReport(path, long); err != nil {
		t.Fatal(err)
	}
	if err := writeReport(path, short); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(out, []byte("]\n")) {
		t.Fatalf("report does not end in one newline: %q", out)
	}
	if got := decodeReports(t, out); !reflect.DeepEqual(got, short) {
		t.Fatalf("file holds %s, want the last write only", out)
	}
}
