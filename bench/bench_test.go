package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestSpecMatchesBenchmarkJSON keeps the program's metric tables and the
// contract at the repository root identical, and the contract within the
// limits its driver enforces.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n%v\n%v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go:\n%v\n%v", bf.PerLayer, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, s := range append(append([]metricSpec(nil), bf.EndToEnd...), bf.PerLayer...) {
		check(s.Name)
		if !unit.MatchString(s.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better = %q", s.Name, s.Better)
		}
		if s.Bound < 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", s.Name, s.Bound)
		}
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.Workloads) != 4 {
		t.Fatalf("%d workloads, want 4", len(bf.Workloads))
	}
	for _, w := range bf.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, err := newWorkload(params{workload: w.Name}); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	// 4 + 22 runs per workload, each run_seconds of laps plus set-ups,
	// reference work and process start, must fit the driver's 3420 s.
	if runs := 4 + 22*len(bf.Workloads); float64(runs)*(float64(bf.RunSeconds)+6) > 3420-240 {
		t.Errorf("run_seconds %d leaves no room for %d runs and two builds in 3420 s", bf.RunSeconds, runs)
	}
}

// exact lists the metrics that are counts of the program's work on fixed
// inputs: two runs on one seed must agree to the last digit.
var exact = []string{
	"uplink_bytes_per_kpoint", "downlink_bytes_per_kpoint", "quality_p2_pct",
	"dbscan.range_queries", "dbdc.global_reps",
	"model.local_bytes", "model.global_bytes", "model.delta_bytes",
	"shard.regions", "shard.range_queries",
	"stream.uploads", "stream.delta_uploads", "stream.resyncs", "transport.rebuilds",
	"transport.attempts", "transport.retries", "serve.swaps", "serve.errors",
}

// TestWorkloads runs every workload twice on one seed, a short pass at
// reduced scale through the same code as the benchmark, and checks the
// output against the contract.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	host := stampHost()
	for _, wl := range bf.Workloads {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			p := params{workload: wl.Name, seed: 7, seconds: 0.9, scale: 0.1}
			var lines [2]resultLine
			for i := range lines {
				res, err := run(p, traceBoth, host)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := report(&out, p, traceBoth, host, res); err != nil {
					t.Fatal(err)
				}
				rows := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				if err := json.Unmarshal(rows[len(rows)-1], &lines[i]); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if !lines[i].Correct || lines[i].Failed != 0 || lines[i].Attempted < 1 {
					t.Fatalf("correct %v, %d of %d laps failed: %s", lines[i].Correct, lines[i].Failed, lines[i].Attempted, res.note)
				}
			}
			want := expected(traceBoth)
			if len(lines[0].Metrics) != len(want) {
				t.Errorf("%d metrics emitted, contract has %d", len(lines[0].Metrics), len(want))
			}
			for _, s := range want {
				mv, ok := lines[0].Metrics[s.Name]
				if !ok {
					t.Errorf("%s not emitted", s.Name)
					continue
				}
				if mv.Unit != s.Unit {
					t.Errorf("%s emitted in %q, contract says %q", s.Name, mv.Unit, s.Unit)
				}
				if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s = %v", s.Name, mv.Value)
				}
			}
			for _, s := range bf.EndToEnd {
				if lines[0].Metrics[s.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", s.Name, lines[0].Metrics[s.Name].Value)
				}
			}
			for _, name := range exact {
				if a, b := lines[0].Metrics[name].Value, lines[1].Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", name, a, b)
				}
			}
			if sum := lines[0].Metrics["trace.sum_pct"].Value; sum < 90 || sum > 110 {
				t.Errorf("trace.sum_pct = %.1f, spans must cover 90-110%% of the lap", sum)
			}
		})
	}
}

func TestFastMean(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(200 - i) // 200 .. 1
	}
	if got := fastMean(samples); got != 10.5 { // mean of 1..20
		t.Errorf("fastMean of 200 samples = %v, want the mean of the 20 smallest, 10.5", got)
	}
	if got := fastMean(samples[:50]); got != 153 { // five smallest of 151..200
		t.Errorf("fastMean of 50 samples = %v, want the mean of the 5 smallest, 153", got)
	}
	if got := fastMean(samples[:20]); got != 182 { // three smallest of 181..200
		t.Errorf("fastMean of 20 samples = %v, want the mean of the 3 smallest, 182", got)
	}
	if got := fastMean([]float64{3, 1}); got != 2 {
		t.Errorf("fastMean of 2 samples = %v, want their mean", got)
	}
}

// TestMedianAndSpread pins the quartile rule to the one the driver uses,
// statistics.quantiles(values, n=4) in Python.
func TestMedianAndSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	values := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	med, spread := medianAndSpread(values)
	if med != 5.5 || math.Abs(spread-1) > 1e-12 {
		t.Errorf("median %v spread %v, want 5.5 and (8.25-2.75)/5.5 = 1", med, spread)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.beginLap()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	time.Sleep(2 * time.Millisecond)
	tr.end(inner)
	done := tr.async("side", outer)
	time.Sleep(time.Millisecond)
	done()
	tr.end(outer)
	tr.end(root)
	tr.probe("probe", func() {})

	profs := tr.profiles()
	if len(profs) != 1 {
		t.Fatalf("%d laps, want 1", len(profs))
	}
	p := profs[0]
	if p.self["inner"] < 2*time.Millisecond {
		t.Errorf("inner self time %v, slept 2ms", p.self["inner"])
	}
	// The async span overlaps outer and must not be subtracted from it.
	if p.self["outer"] < time.Millisecond {
		t.Errorf("outer self time %v lost the time its async child ran", p.self["outer"])
	}
	if sum := p.self["lap"] + p.self["outer"] + p.self["inner"]; sum != p.total {
		t.Errorf("self times sum to %v, the lap took %v", sum, p.total)
	}
	if _, ok := p.self["probe"]; ok {
		t.Error("a probe was charged to a lap")
	}
}
