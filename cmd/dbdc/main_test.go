package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	lib "github.com/dbdc-go/dbdc"
	"github.com/dbdc-go/dbdc/internal/data"
)

// runMainEnv makes a re-executed test binary run the command instead of
// the tests, so the tests see its real exit code and output.
const runMainEnv = "DBDC_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs dbdc with args to completion, killed after 30s at the latest, and
// returns its stdout, its stderr and its exit code.
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

// writePoints writes three blobs and some uniform noise, 300 points in all,
// to a CSV file and returns its path and the points as the command reads
// them back.
func writePoints(t *testing.T) (string, []lib.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var pts []lib.Point
	for _, c := range []lib.Point{{0, 0}, {10, 0}, {5, 9}} {
		for range 90 {
			pts = append(pts, lib.Point{c[0] + rng.NormFloat64()*0.6, c[1] + rng.NormFloat64()*0.6})
		}
	}
	for range 30 {
		pts = append(pts, lib.Point{rng.Float64()*20 - 5, rng.Float64()*20 - 5})
	}
	path := filepath.Join(t.TempDir(), "points.csv")
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	back, err := data.ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return path, back
}

// parseLabels reads one cluster id per line.
func parseLabels(t *testing.T, out string) lib.Labeling {
	t.Helper()
	var labels lib.Labeling
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		id, err := strconv.Atoi(line)
		if err != nil {
			t.Fatalf("label line %q: %v", line, err)
		}
		labels = append(labels, lib.ClusterID(id))
	}
	return labels
}

func checkLabels(t *testing.T, got, want lib.Labeling) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d labels printed, want one per row (%d)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: label %d, want %d", i, got[i], want[i])
		}
	}
	if want.NumClusters() == 0 {
		t.Fatal("no clusters found; the comparison would be vacuous")
	}
}

// TestCentral: without -sites the command prints the labels of central
// DBSCAN, one per input row, the ones lib.Cluster computes.
func TestCentral(t *testing.T) {
	path, pts := writePoints(t)
	params := lib.Params{Eps: 1.2, MinPts: 4}
	stdout, stderr, code := run(t, "-input", path, "-eps", "1.2", "-minpts", "4")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, stderr)
	}
	want, err := lib.Cluster(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	checkLabels(t, parseLabels(t, stdout), want.Labels)
}

// TestSites: with -sites 3 the command deals the rows round-robin to three
// sites and prints, per input row, the global label lib.Run gives it.
func TestSites(t *testing.T) {
	path, pts := writePoints(t)
	const numSites = 3
	stdout, stderr, code := run(t, "-input", path, "-eps", "1.2", "-minpts", "4", "-sites", strconv.Itoa(numSites))
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, stderr)
	}
	sites := make([]lib.Site, numSites)
	for s := range sites {
		sites[s].ID = fmt.Sprintf("site-%02d", s)
	}
	for i, p := range pts {
		sites[i%numSites].Points = append(sites[i%numSites].Points, p)
	}
	res, err := lib.Run(sites, lib.Config{Local: lib.Params{Eps: 1.2, MinPts: 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := make(lib.Labeling, len(pts))
	for i := range pts {
		want[i] = res.Sites[sites[i%numSites].ID].Labels[i/numSites]
	}
	checkLabels(t, parseLabels(t, stdout), want)
}

// TestIndexFlagRefused: -index is gone — every run is on the R*-tree — and
// naming it is a usage error like any undefined flag, exit 2, no labels.
func TestIndexFlagRefused(t *testing.T) {
	path, _ := writePoints(t)
	stdout, stderr, code := run(t, "-input", path, "-eps", "1.2", "-minpts", "4", "-index", "linear")
	if code != 2 {
		t.Fatalf("exit code %d, want 2:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "flag provided but not defined: -index") {
		t.Fatalf("stderr does not name the undefined flag:\n%s", stderr)
	}
	if stdout != "" {
		t.Fatalf("labels printed on failure:\n%s", stdout)
	}
}

// TestMissingInput: a run without -input is a usage error, exit 2.
func TestMissingInput(t *testing.T) {
	_, stderr, code := run(t, "-eps", "1.2", "-minpts", "4")
	if code != 2 {
		t.Fatalf("exit code %d, want 2:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "-input") {
		t.Fatalf("usage does not mention -input:\n%s", stderr)
	}
}
