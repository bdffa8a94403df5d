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
const runMainEnv = "DBDC_AGG_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var cfg = lib.Config{Local: lib.Params{Eps: 1, MinPts: 4}}

// command is a running dbdc-agg.
type command struct {
	cmd    *exec.Cmd
	stdout bytes.Buffer
	stderr bytes.Buffer
	copied chan struct{}
	addr   string
}

// start runs dbdc-agg with args, killed after 30s at the latest, and
// returns once it announced its child-facing address.
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
		if _, rest, ok := strings.Cut(sc.Text(), " listening on "); ok {
			c.addr, _, _ = strings.Cut(rest, " ")
		}
	}
	go func() {
		io.Copy(&c.stderr, stderr)
		close(c.copied)
	}()
	if c.addr == "" {
		<-c.copied
		t.Fatalf("dbdc-agg announced no listen address:\n%s", c.stderr.String())
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

// startParent runs an in-process root server for one site, the
// aggregator, serving the given number of rounds.
func startParent(t *testing.T, rounds int) string {
	t.Helper()
	srv, err := transport.NewServer("127.0.0.1:0", 1, cfg, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range rounds {
			if _, _, err := srv.RunRoundOpts(transport.RoundOptions{AcceptTimeout: 10 * time.Second}); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv.Addr()
}

// decodeReports decodes out as exactly one JSON array of round reports.
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

// requireMissingChild checks that the report names child id as failed
// with the accept-deadline reason.
func requireMissingChild(t *testing.T, r *transport.RoundReport, id string) {
	t.Helper()
	if r.OK != 0 || r.Failed != 1 || len(r.Sites) != 1 {
		t.Fatalf("round ok=%d failed=%d sites=%+v, want one failed child", r.OK, r.Failed, r.Sites)
	}
	if s := r.Sites[0]; s.SiteID != id || s.OK || s.Reason != "no connection before the round deadline" {
		t.Fatalf("failed child %+v, want %s without a connection", s, id)
	}
}

// requireForwarded checks that the round merged child id and forwarded
// the condensed model to the parent.
func requireForwarded(t *testing.T, r *transport.RoundReport, id string) {
	t.Helper()
	if r.OK != 1 || len(r.Sites) != 1 || r.Sites[0].SiteID != id || r.Sites[0].Phases == nil {
		t.Fatalf("round ok=%d sites=%+v, want %s with its phases", r.OK, r.Sites, id)
	}
	if r.ForwardDuration <= 0 {
		t.Fatalf("round carries no forward duration: %+v", r)
	}
}

func runChild(t *testing.T, addr, id string) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 60)
	for i := range pts {
		pts[i] = geom.Point{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3}
	}
	// A single attempt: a child that connects before the next round
	// collects waits for it.
	c := &transport.Client{Addr: addr, Timeout: 5 * time.Second}
	if _, err := transport.RunSiteClient(c, id, pts, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestReportJSONStdoutOnFailedRound: a round that fails before the last
// still prints the report to stdout, its missing child named, before the
// command exits 1. The parent is never dialed: a quorum miss stays local.
func TestReportJSONStdoutOnFailedRound(t *testing.T) {
	c := start(t, "-addr", "127.0.0.1:0", "-id", "agg-a", "-parent", "127.0.0.1:1", "-expect", "1",
		"-eps", "1", "-minpts", "4", "-rounds", "2", "-accept-timeout", "1s", "-expect-sites", "c1",
		"-report-json", "-")
	if code := c.wait(); code != 1 {
		t.Fatalf("exit code %d, want 1:\n%s", code, c.stderr.String())
	}
	reports := decodeReports(t, c.stdout.Bytes())
	if len(reports) != 1 {
		t.Fatalf("%d round reports, want 1", len(reports))
	}
	requireMissingChild(t, reports[0], "c1")
}

// TestReportJSONStdoutAfterLastRound: with "-" the report goes to stdout
// once, after the last round, holding every round with its forward cost.
func TestReportJSONStdoutAfterLastRound(t *testing.T) {
	parent := startParent(t, 2)
	c := start(t, "-addr", "127.0.0.1:0", "-id", "agg-a", "-parent", parent, "-expect", "1",
		"-eps", "1", "-minpts", "4", "-rounds", "2", "-accept-timeout", "10s", "-report-json", "-")
	runChild(t, c.addr, "c1")
	runChild(t, c.addr, "c1")
	if code := c.wait(); code != 0 {
		t.Fatalf("exit code %d, want 0:\n%s", code, c.stderr.String())
	}
	reports := decodeReports(t, c.stdout.Bytes())
	if len(reports) != 2 {
		t.Fatalf("%d round reports, want 2", len(reports))
	}
	for _, r := range reports {
		requireForwarded(t, r, "c1")
	}
}

// TestReportJSONFileKeepsRoundsBeforeFailure: the file is rewritten after
// every round, so when round 2 fails it holds round 1 and the failed round,
// and stdout stays empty.
func TestReportJSONFileKeepsRoundsBeforeFailure(t *testing.T) {
	parent := startParent(t, 1)
	path := filepath.Join(t.TempDir(), "rounds.json")
	c := start(t, "-addr", "127.0.0.1:0", "-id", "agg-a", "-parent", parent, "-expect", "1",
		"-eps", "1", "-minpts", "4", "-rounds", "2", "-accept-timeout", "2s", "-expect-sites", "c1",
		"-report-json", path)
	runChild(t, c.addr, "c1")
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
	requireForwarded(t, reports[0], "c1")
	requireMissingChild(t, reports[1], "c1")
}

// TestWriteReportRewritesWhole: each write replaces the file, so a shorter
// report leaves nothing of a longer one behind.
func TestWriteReportRewritesWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rounds.json")
	long := []*transport.RoundReport{
		{Expect: 2, OK: 2, ForwardDuration: time.Millisecond, Sites: []transport.SiteOutcome{{SiteID: "c1", OK: true}, {SiteID: "c2", OK: true}}},
		{Expect: 2, OK: 1, Failed: 1, ForwardDuration: time.Millisecond, Sites: []transport.SiteOutcome{{SiteID: "c1", OK: true}, {SiteID: "c2", Reason: "timeout"}}},
	}
	short := []*transport.RoundReport{{Expect: 1, Failed: 1, Sites: []transport.SiteOutcome{{SiteID: "c3", Reason: "refused"}}}}
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
