package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

// TestLoadgenSmoke is the in-process twin of the CI loadgen-smoke step:
// boot a server, run a short closed-loop load against it for both request
// shapes, and check the result and its summary are coherent.
func TestLoadgenSmoke(t *testing.T) {
	srv, reg, m := startTestServer(t, 0)
	pts, global := buildTestModel(t, model.RepScor, 42)
	if _, err := reg.Publish(global); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 16} {
		res, err := RunLoad(LoadConfig{
			Addr:        srv.Addr(),
			Concurrency: 4,
			Duration:    300 * time.Millisecond,
			BatchSize:   batch,
			Points:      pts,
			Timeout:     5 * time.Second,
		})
		if err != nil {
			t.Fatalf("batch=%d: RunLoad: %v", batch, err)
		}
		if res.Requests == 0 || res.PointsClassified < res.Requests*uint64(batch) {
			t.Fatalf("batch=%d: requests=%d points=%d", batch, res.Requests, res.PointsClassified)
		}
		if res.Errors != 0 {
			t.Fatalf("batch=%d: %d errors against a healthy server", batch, res.Errors)
		}
		if res.MinVersion != 1 || res.MaxVersion != 1 {
			t.Fatalf("batch=%d: versions %d..%d, want 1..1", batch, res.MinVersion, res.MaxVersion)
		}
		if res.Latency.Count() != res.Requests {
			t.Fatalf("batch=%d: %d latency samples for %d requests", batch, res.Latency.Count(), res.Requests)
		}
		if res.QPS() <= 0 || res.PointsPerSec() <= 0 {
			t.Fatalf("batch=%d: non-positive rates: %s", batch, res)
		}
		if s := res.String(); !strings.Contains(s, "loadgen:") || !strings.Contains(s, "p99=") {
			t.Fatalf("batch=%d: summary %q", batch, s)
		}
	}
	// The server-side counters saw the load too.
	if m.Requests.Load() == 0 || m.Points.Load() == 0 {
		t.Fatalf("server metrics untouched: requests=%d points=%d", m.Requests.Load(), m.Points.Load())
	}
}

// TestLoadgenOpenLoop boots a server and drives it with a modest Poisson
// arrival rate: the run must achieve a rate in the ballpark of the target
// (the server is local and far faster than 200 req/s), report open-loop
// bookkeeping, and print it in the open-loop summary.
func TestLoadgenOpenLoop(t *testing.T) {
	srv, reg, _ := startTestServer(t, 0)
	pts, global := buildTestModel(t, model.RepScor, 42)
	if _, err := reg.Publish(global); err != nil {
		t.Fatal(err)
	}
	const target = 200.0
	res, err := RunLoad(LoadConfig{
		Addr:        srv.Addr(),
		Concurrency: 4,
		Duration:    500 * time.Millisecond,
		BatchSize:   1,
		Points:      pts,
		Timeout:     5 * time.Second,
		Rate:        target,
		Seed:        7,
	})
	if err != nil {
		t.Fatalf("RunLoad(open): %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors against a healthy server", res.Errors)
	}
	// Poisson arrivals over 0.5s at 200/s give ~100 requests; allow wide
	// slack for scheduler noise but reject a loop that ran closed (a local
	// server would then complete tens of thousands).
	if res.Requests < 20 || res.Requests > 400 {
		t.Fatalf("achieved %d requests for target %.0f req/s over %s", res.Requests, target, res.Elapsed)
	}
	if got := res.QPS(); got > 2*target {
		t.Fatalf("achieved rate %.0f far above open-loop target %.0f", got, target)
	}
	if res.ArrivalsDropped != 0 {
		t.Fatalf("healthy local server shed %d arrivals", res.ArrivalsDropped)
	}
	if s := res.String(); !strings.Contains(s, "open loop: target 200") {
		t.Fatalf("summary misses open-loop section: %q", s)
	}
}

// TestLoadResultString pins the summary line dbdc-loadgen prints: it is
// the command's only report, so every number of the run must be in it —
// rates, errors, the latency quantiles, noise share and model versions, and
// in the open loop the target, achieved rate, queue depth and drops.
func TestLoadResultString(t *testing.T) {
	lat := NewHistogram()
	for i := 1; i <= 100; i++ {
		lat.Observe(time.Duration(i) * 100 * time.Microsecond)
	}
	quantiles := fmt.Sprintf("p50=%s p95=%s p99=%s",
		lat.Quantile(0.5).Round(time.Microsecond),
		lat.Quantile(0.95).Round(time.Microsecond),
		lat.Quantile(0.99).Round(time.Microsecond))
	closed := "loadgen: conc=4 batch=16 dur=2s: 1000 requests (500 req/s, 8000 points/s), 2 errors, " +
		quantiles + ", noise 2.5%, model versions 3..5"
	for _, tc := range []struct {
		name     string
		rate     float64
		maxQueue int
		dropped  uint64
		want     string
	}{
		{name: "closed", want: closed},
		{name: "open", rate: 600, maxQueue: 7, dropped: 9,
			want: closed + ", open loop: target 600 req/s achieved 500, max queue 7, 9 dropped"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := &LoadResult{
				Config:   LoadConfig{Concurrency: 4, BatchSize: 16, Rate: tc.rate},
				Requests: 1000, Errors: 2,
				PointsClassified: 16000, NoisePoints: 400,
				MinVersion: 3, MaxVersion: 5,
				Elapsed:         2 * time.Second,
				Latency:         lat,
				ArrivalsDropped: tc.dropped,
				MaxQueueDepth:   tc.maxQueue,
			}
			if got := res.String(); got != tc.want {
				t.Fatalf("summary\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestLoadgenValidation: bad configs fail fast, an unreachable server
// fails with zero successes instead of hanging.
func TestLoadgenValidation(t *testing.T) {
	if _, err := RunLoad(LoadConfig{
		Addr:   "127.0.0.1:1",
		Points: []geom.Point{{0, 0}},
		Rate:   -1,
	}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := RunLoad(LoadConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := RunLoad(LoadConfig{Addr: "127.0.0.1:1"}); err == nil {
		t.Error("config without points accepted")
	}
	res, err := RunLoad(LoadConfig{
		Addr:        "127.0.0.1:1", // reserved port: connection refused
		Concurrency: 1,
		Duration:    50 * time.Millisecond,
		Points:      []geom.Point{{0, 0}},
		Timeout:     time.Second,
	})
	if err == nil {
		t.Errorf("unreachable server produced a successful run: %+v", res)
	}
}
