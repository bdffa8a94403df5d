package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/serve"
)

// runMainEnv makes a re-executed test binary run the command instead of
// the tests, so the tests see its real exit code and output.
const runMainEnv = "DBDC_LOADGEN_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs dbdc-loadgen with args, killed after 30s at the latest, and
// returns its exit code and stderr.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// summary matches the request and error counts of the summary line.
var summary = regexp.MustCompile(`dbdc-loadgen: loadgen: .*: (\d+) requests \(.*\), (\d+) errors,`)

// TestLoadgenAgainstFrontEnd drives an in-process front end serving a data
// set B model with 64-point batches of data set B for 300 ms: the command
// exits 0 and its summary line counts requests and no errors.
func TestLoadgenAgainstFrontEnd(t *testing.T) {
	ds := data.DatasetB(1)
	cfg := dbdc.Config{Local: ds.Params}
	local, err := dbdc.LocalStepStore("site-1", ds.Store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	global, err := dbdc.GlobalStep([]*model.LocalModel{local.Model}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry("")
	if _, err := reg.Publish(global); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer("127.0.0.1:0", serve.ServerConfig{Registry: reg, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	}()

	code, stderr := run(t, "-addr", srv.Addr(), "-duration", "300ms", "-batch", "64", "-dataset", "b")
	if code != 0 {
		t.Fatalf("exit code %d, want 0:\n%s", code, stderr)
	}
	m := summary.FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no summary line:\n%s", stderr)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 || m[2] != "0" {
		t.Fatalf("%s requests with %s errors, want some requests and no errors:\n%s", m[1], m[2], stderr)
	}
}

// TestLoadgenUnknownDataset: an unknown -dataset exits 1 and names the
// data sets it accepts.
func TestLoadgenUnknownDataset(t *testing.T) {
	code, stderr := run(t, "-dataset", "z", "-duration", "300ms")
	if code != 1 || !strings.Contains(stderr, "want a, b or c") {
		t.Fatalf("exit code %d, stderr:\n%s\nwant 1 naming the data sets", code, stderr)
	}
}
