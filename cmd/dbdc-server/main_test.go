package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	lib "github.com/dbdc-go/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/serve"
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
	exited chan struct{}

	mu     sync.Mutex
	stderr bytes.Buffer
}

// start runs dbdc-server with args, killed after 30s at the latest.
func start(t *testing.T, args ...string) *command {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	c := &command{cmd: exec.CommandContext(ctx, os.Args[0], args...), exited: make(chan struct{})}
	c.cmd.Env = append(os.Environ(), runMainEnv+"=1")
	c.cmd.Stdout = &c.stdout
	c.cmd.Stderr = c
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		c.cmd.Wait()
		close(c.exited)
	}()
	t.Cleanup(func() {
		cancel()
		<-c.exited
	})
	return c
}

// Write collects the command's stderr.
func (c *command) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stderr.Write(p)
}

func (c *command) stderrText() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stderr.String()
}

// await returns the word that follows marker on stderr, once the command
// printed it.
func (c *command) await(t *testing.T, marker string) string {
	t.Helper()
	for {
		exited := false
		select {
		case <-c.exited:
			exited = true
		default:
		}
		if _, rest, ok := strings.Cut(c.stderrText(), marker); ok {
			return strings.Fields(rest)[0]
		}
		if exited {
			t.Fatalf("dbdc-server exited without printing %q:\n%s", marker, c.stderrText())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wait waits for the command to exit and returns its exit code.
func (c *command) wait() int {
	<-c.exited
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

var cfg = lib.Config{Local: lib.Params{Eps: 1, MinPts: 4}}

// sitePoints is one blob of 60 points around the origin.
func sitePoints() []geom.Point {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 60)
	for i := range pts {
		pts[i] = geom.Point{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3}
	}
	return pts
}

// runSite runs one site's round against addr in a single attempt: a site
// that connects before the next round collects waits for it.
func runSite(t *testing.T, addr string) {
	t.Helper()
	c := &transport.Client{Addr: addr, Timeout: 5 * time.Second}
	if _, err := transport.RunSiteClient(c, "s1", sitePoints(), cfg); err != nil {
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
		t.Fatalf("exit code %d, want 1:\n%s", code, c.stderrText())
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
	addr := c.await(t, "listening on ")
	runSite(t, addr)
	runSite(t, addr)
	if code := c.wait(); code != 0 {
		t.Fatalf("exit code %d, want 0:\n%s", code, c.stderrText())
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
	runSite(t, c.await(t, "listening on "))
	if code := c.wait(); code != 1 {
		t.Fatalf("exit code %d, want 1:\n%s", code, c.stderrText())
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

// The two server modes the front-end flags apply to: a round needs a site,
// the streaming server any full upload, before a model is published.
var modes = []struct {
	name string
	args []string
	feed func(t *testing.T, c *command)
}{
	{"round", []string{"-sites", "1", "-accept-timeout", "10s"}, func(t *testing.T, c *command) {
		runSite(t, c.await(t, "listening on "))
	}},
	{"stream", []string{"-stream"}, func(t *testing.T, c *command) {
		local, err := lib.LocalStep("s1", sitePoints(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := transport.Exchange(c.await(t, "streaming mode on "), local.Model, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}},
}

// TestClassifyIndexUnknown: an unknown -classify-index exits 2 in both
// modes, naming the flag.
func TestClassifyIndexUnknown(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			c := start(t, append(m.args, "-addr", "127.0.0.1:0", "-eps", "1", "-minpts", "4",
				"-serve-classify", "127.0.0.1:0", "-classify-index", "bogus")...)
			if code := c.wait(); code != 2 {
				t.Fatalf("exit code %d, want 2:\n%s", code, c.stderrText())
			}
			if !strings.Contains(c.stderrText(), `dbdc-server: unknown -classify-index "bogus"`) {
				t.Fatalf("stderr does not name the index:\n%s", c.stderrText())
			}
		})
	}
}

// TestMetricsAddrNeedsServeClassify: -metrics-addr alone exits 2 in both
// modes.
func TestMetricsAddrNeedsServeClassify(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			c := start(t, append(m.args, "-addr", "127.0.0.1:0", "-eps", "1", "-minpts", "4",
				"-metrics-addr", "127.0.0.1:0")...)
			if code := c.wait(); code != 2 {
				t.Fatalf("exit code %d, want 2:\n%s", code, c.stderrText())
			}
			if !strings.Contains(c.stderrText(), "dbdc-server: -metrics-addr needs -serve-classify\n") {
				t.Fatalf("stderr does not name the missing flag:\n%s", c.stderrText())
			}
		})
	}
}

// TestServeClassify: with -serve-classify and -metrics-addr, once a model
// is in, a ClassifyBatch to the announced address answers and /metrics
// reports the model version, in both modes.
func TestServeClassify(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			c := start(t, append(m.args, "-addr", "127.0.0.1:0", "-eps", "1", "-minpts", "4",
				"-serve-classify", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")...)
			m.feed(t, c)
			requireFrontEnd(t, c, sitePoints())
		})
	}
}

// requireFrontEnd checks the classification front end c announced: a
// ClassifyBatch of pts answers from a published model, and /metrics
// reports dbdc_model_version ≥ 1.
func requireFrontEnd(t *testing.T, c *command, pts []geom.Point) {
	t.Helper()
	client, err := serve.Dial(c.await(t, "serving classification on "), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	labels, version, err := client.ClassifyBatch(pts)
	if err != nil || version < 1 || len(labels) != len(pts) {
		t.Fatalf("ClassifyBatch: %d labels of model version %d, %v", len(labels), version, err)
	}
	resp, err := http.Get(c.await(t, "metrics on "))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	version = 0
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "dbdc_model_version "); ok {
			version, _ = strconv.ParseUint(v, 10, 64)
		}
	}
	if version < 1 {
		t.Fatalf("/metrics reports no model version ≥ 1:\n%s", body)
	}
}
