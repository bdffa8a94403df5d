package main

import (
	"bytes"
	"context"
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
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/serve"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// runMainEnv makes a re-executed test binary run the command instead of
// the tests, so the tests see its real exit code and output.
const runMainEnv = "DBDC_SITE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command is a running dbdc-site.
type command struct {
	cmd    *exec.Cmd
	stdout bytes.Buffer
	exited chan struct{}

	mu     sync.Mutex
	stderr bytes.Buffer
}

// start runs dbdc-site with args, killed after 30s at the latest.
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
			t.Fatalf("dbdc-site exited without printing %q:\n%s", marker, c.stderrText())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wait waits for the command to exit and returns its exit code.
func (c *command) wait() int {
	<-c.exited
	return c.cmd.ProcessState.ExitCode()
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

// startSite runs dbdc-site on sitePoints against an in-process server that
// serves it one round, with extra flags appended.
func startSite(t *testing.T, extra ...string) *command {
	t.Helper()
	input := filepath.Join(t.TempDir(), "site.csv")
	f, err := os.Create(input)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.WriteCSV(f, sitePoints()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	srv, err := transport.NewServer("127.0.0.1:0", 1, cfg, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	round := make(chan struct{})
	go func() {
		defer close(round)
		srv.RunRoundOpts(transport.RoundOptions{AcceptTimeout: 10 * time.Second})
	}()
	t.Cleanup(func() {
		srv.Close()
		<-round
	})
	return start(t, append([]string{"-addr", srv.Addr(), "-id", "s1", "-input", input, "-eps", "1", "-minpts", "4"}, extra...)...)
}

// TestClassifyIndexFlagRefused: -classify-index is gone — the classifier
// answers from a coverage grid and takes no index — so the flag is refused
// as undefined, exit 2.
func TestClassifyIndexFlagRefused(t *testing.T) {
	c := startSite(t, "-serve-classify", "127.0.0.1:0", "-classify-index", "rstar")
	if code := c.wait(); code != 2 {
		t.Fatalf("exit code %d, want 2:\n%s", code, c.stderrText())
	}
	if !strings.Contains(c.stderrText(), "flag provided but not defined: -classify-index") {
		t.Fatalf("stderr does not name the undefined flag:\n%s", c.stderrText())
	}
}

// TestMetricsAddrNeedsServeClassify: -metrics-addr alone exits 2.
func TestMetricsAddrNeedsServeClassify(t *testing.T) {
	c := startSite(t, "-metrics-addr", "127.0.0.1:0")
	if code := c.wait(); code != 2 {
		t.Fatalf("exit code %d, want 2:\n%s", code, c.stderrText())
	}
	if !strings.Contains(c.stderrText(), "dbdc-site: -metrics-addr needs -serve-classify\n") {
		t.Fatalf("stderr does not name the missing flag:\n%s", c.stderrText())
	}
}

// TestServeClassify: with -serve-classify and -metrics-addr, after the
// round a ClassifyBatch to the announced address answers against the
// received model and /metrics reports dbdc_model_version ≥ 1.
func TestServeClassify(t *testing.T) {
	c := startSite(t, "-serve-classify", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	pts := sitePoints()
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
