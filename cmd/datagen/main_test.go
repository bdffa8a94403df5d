package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/data"
)

// runMainEnv makes a re-executed test binary run the command instead of
// the tests, so the tests see its real exit code and output.
const runMainEnv = "DATAGEN_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs datagen with args to completion, killed after 30s at the latest,
// and returns its stdout, its stderr and its exit code.
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

// Data set C written to stdout reads back, coordinate for coordinate and bit
// for bit, as the points data.DatasetC generates for the same seed.
func TestDatasetCRoundTrips(t *testing.T) {
	stdout, stderr, code := run(t, "-dataset", "C", "-seed", "5")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	got, err := data.ReadCSV(strings.NewReader(stdout))
	if err != nil {
		t.Fatal(err)
	}
	want := data.DatasetC(5).Points
	if len(got) != len(want) {
		t.Fatalf("%d points read back, data set C has %d", len(got), len(want))
	}
	for i := range want {
		for d := range want[i] {
			if math.Float64bits(got[i][d]) != math.Float64bits(want[i][d]) {
				t.Fatalf("point %d axis %d: %v read back, %v generated", i, d, got[i][d], want[i][d])
			}
		}
	}
}

// -n sizes data set A, and -o writes it to the file named.
func TestDatasetAToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.csv")
	stdout, stderr, code := run(t, "-dataset", "A", "-n", "500", "-o", path)
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d, stdout %q: %s", code, stdout, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := data.ReadCSV(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 500 {
		t.Fatalf("%d rows written, want 500", len(pts))
	}
}

// An unknown data set is refused with exit status 1 and the ones that exist
// named.
func TestUnknownDatasetRefused(t *testing.T) {
	_, stderr, code := run(t, "-dataset", "Z")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, name := range []string{"A", "B", "C"} {
		if !strings.Contains(stderr, name) {
			t.Fatalf("stderr %q does not name data set %s", stderr, name)
		}
	}
}
