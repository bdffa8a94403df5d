package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv makes a re-executed test binary run the command instead of
// the tests, so the tests see its real exit code and output.
const runMainEnv = "EXPERIMENTS_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs experiments with args to completion, killed after 60s at the
// latest, and returns its stdout, its stderr and its exit code.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// An unknown experiment is refused with exit status 1, the ones that exist
// named and the "experiments:" prefix printed once.
func TestUnknownExperimentRefused(t *testing.T) {
	_, stderr, code := run(t, "-run", "nope")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, name := range []string{"fig7a", "fig11", "incremental"} {
		if !strings.Contains(stderr, name) {
			t.Fatalf("stderr %q does not name experiment %s", stderr, name)
		}
	}
	if n := strings.Count(stderr, "experiments:"); n != 1 || !strings.HasPrefix(stderr, "experiments: unknown experiment") {
		t.Fatalf("stderr %q carries %d \"experiments:\" prefixes, want one", stderr, n)
	}
}

// One experiment at a small scale prints its table: the title line, then
// the header.
func TestIncrementalPrintsTable(t *testing.T) {
	stdout, stderr, code := run(t, "-run", "incremental", "-scale", "0.05")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	lines := strings.Split(stdout, "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[0], "== incremental:") ||
		!strings.HasPrefix(lines[1], "epoch") || !strings.Contains(lines[1], "uploads(incremental)") {
		t.Fatalf("no incremental table header in:\n%s", stdout)
	}
}

// A bad flag exits non-zero.
func TestBadFlagRefused(t *testing.T) {
	if _, _, code := run(t, "-nope"); code == 0 {
		t.Fatal("exit 0")
	}
}
