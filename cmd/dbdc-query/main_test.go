package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// runMainEnv makes a re-executed test binary run the command instead of
// the tests, so the tests see its real exit code and output.
const runMainEnv = "DBDC_QUERY_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs dbdc-query with args to completion, killed after 30s at the
// latest, and returns its stdout, its stderr and its exit code.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
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

// The site's objects and their global clusters: cluster 4 has three
// members, cluster 1 one, and one object is noise.
var (
	sitePts    = []geom.Point{{0, 0}, {1.5, -2}, {3, 4}, {0.25, 0.5}, {7, 7}}
	siteLabels = cluster.Labeling{4, 1, 4, 4, cluster.Noise}
)

// startSite serves the site's objects on a loopback port until the test
// ends, and returns the address.
func startSite(t *testing.T) string {
	t.Helper()
	srv, err := transport.NewSiteQueryServer("127.0.0.1:0", sitePts, siteLabels, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(0) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv.Addr()
}

// members returns the site's objects in global cluster id, in site order.
func members(id cluster.ID) []geom.Point {
	var out []geom.Point
	for i, l := range siteLabels {
		if l == id {
			out = append(out, sitePts[i])
		}
	}
	return out
}

func checkPoints(t *testing.T, csv []byte, want []geom.Point) {
	t.Helper()
	got, err := data.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d points, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("point %d is %v, want %v", i, got[i], want[i])
		}
	}
}

// A query for a global cluster prints the cluster's points as CSV, and the
// summary names how many there were.
func TestQueryPrintsClusterPoints(t *testing.T) {
	addr := startSite(t)
	stdout, stderr, code := run(t, "-addr", addr, "-cluster", "4")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	checkPoints(t, []byte(stdout), members(4))
	if !strings.Contains(stderr, "3 objects of global cluster 4") {
		t.Fatalf("stderr %q does not count the members", stderr)
	}
}

// -o writes the points to the file named and nothing to stdout.
func TestQueryToFile(t *testing.T) {
	addr := startSite(t)
	path := filepath.Join(t.TempDir(), "members.csv")
	stdout, stderr, code := run(t, "-addr", addr, "-cluster", "1", "-o", path)
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d, stdout %q: %s", code, stdout, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, raw, members(1))
}

// An output file that cannot take the points is an error, exit status 1.
func TestQueryFailedWriteExits1(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail the write")
	}
	addr := startSite(t)
	_, stderr, code := run(t, "-addr", addr, "-cluster", "4", "-o", "/dev/full")
	if code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, stderr)
	}
}

// A bad flag, and a query without its required flags, exit non-zero.
func TestBadFlagsRefused(t *testing.T) {
	for _, args := range [][]string{{"-nope"}, {"-cluster", "1"}, {"-addr", "127.0.0.1:1"}} {
		if _, _, code := run(t, args...); code == 0 {
			t.Errorf("%q: exit 0", args)
		}
	}
}
