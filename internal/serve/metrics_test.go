package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram is not zero-valued")
	}
	// 1000 samples spread uniformly over 0..100ms: the quantile estimate
	// must land within one bucket width of the true quantile.
	const n = 1000
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(i) * 100 * time.Microsecond)
	}
	if h.Count() != n {
		t.Fatalf("count %d, want %d", h.Count(), n)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 50 * time.Millisecond},
		{0.95, 95 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
	} {
		got := h.Quantile(tc.q)
		// The containing buckets are ~40-80ms and ~80-160ms wide; accept
		// an estimate anywhere within a factor of two of the truth.
		if got < tc.want/2 || got > tc.want*2 {
			t.Errorf("q%.2f = %s, want within 2x of %s", tc.q, got, tc.want)
		}
	}
	if sum, want := h.Sum(), n*(n-1)/2*100*time.Microsecond; sum != want {
		t.Errorf("sum %s, want %s", sum, want)
	}
	// Overflow clamps to the last bound instead of inventing data.
	h2 := NewHistogram()
	h2.Observe(time.Hour)
	last := time.Duration(latencyBuckets[len(latencyBuckets)-1] * float64(time.Second))
	if got := h2.Quantile(0.5); got != last {
		t.Errorf("overflow quantile %s, want clamp to %s", got, last)
	}
}

// parsePrometheus is a minimal text-format 0.0.4 parser: it validates the
// structural rules a real scraper enforces (HELP/TYPE precede samples,
// sample lines are `name{labels} value`) and returns the samples.
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			typed[fields[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unrecognised comment line %q", line)
		}
		// Sample: name{labels} value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("sample %q has unparsable value: %v", line, err)
		}
		base := key
		if i := strings.IndexByte(base, '{'); i >= 0 {
			if !strings.HasSuffix(base, "}") {
				t.Fatalf("sample %q has unterminated label set", line)
			}
			base = base[:i]
		}
		// Histogram child series (_bucket/_sum/_count) inherit the family
		// TYPE; everything else must carry its own.
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base, "_bucket"), "_sum"), "_count")
		if !typed[base] && !typed[family] {
			t.Fatalf("sample %q appeared before its TYPE line", line)
		}
		samples[key] = val
	}
	return samples
}

func TestMetricsPrometheusEndpoint(t *testing.T) {
	reg := NewRegistry("")
	m := NewMetrics(reg)
	if _, err := reg.Publish(versionedModel(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(versionedModel(2)); err != nil {
		t.Fatal(err)
	}
	m.Requests.Add(10)
	m.Errors.Add(2)
	m.Points.Add(40)
	m.Noise.Add(4)
	m.ActiveConns.Add(3)
	for i := 1; i <= 100; i++ {
		m.Latency.Observe(time.Duration(i) * time.Millisecond)
	}

	closeFn, addr, err := m.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("content type %q is not the text exposition format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := parsePrometheus(t, string(body))

	expect := map[string]float64{
		"dbdc_classify_requests_total":        10,
		"dbdc_classify_errors_total":          2,
		"dbdc_classify_points_total":          40,
		"dbdc_classify_noise_points_total":    4,
		"dbdc_classify_active_connections":    3,
		"dbdc_model_version":                  2,
		"dbdc_model_representatives":          1,
		"dbdc_model_clusters":                 1,
		"dbdc_model_publications_total":       2,
		"dbdc_model_rejected_total":           0,
		"dbdc_classify_latency_seconds_count": 100,
	}
	for name, want := range expect {
		got, ok := samples[name]
		if !ok {
			t.Errorf("metric %s missing from exposition", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if sum := samples["dbdc_classify_latency_seconds_sum"]; math.Abs(sum-5.050) > 0.001 {
		t.Errorf("latency sum %g, want 5.05", sum)
	}
	// Cumulative le buckets must be monotone non-decreasing and end at the
	// +Inf bucket equalling _count.
	var prev float64
	for _, b := range latencyBuckets {
		key := fmt.Sprintf("dbdc_classify_latency_seconds_bucket{le=%q}", formatFloat(b))
		v, ok := samples[key]
		if !ok {
			t.Fatalf("bucket %s missing", key)
		}
		if v < prev {
			t.Fatalf("bucket %s = %g below previous %g: not cumulative", key, v, prev)
		}
		prev = v
	}
	inf, ok := samples[`dbdc_classify_latency_seconds_bucket{le="+Inf"}`]
	if !ok || inf != 100 {
		t.Fatalf("+Inf bucket = %g (present=%v), want 100", inf, ok)
	}
	for _, q := range []string{"0.5", "0.95", "0.99"} {
		key := fmt.Sprintf("dbdc_classify_latency_quantile_seconds{quantile=%q}", q)
		if v, ok := samples[key]; !ok || v <= 0 {
			t.Errorf("quantile gauge %s = %g (present=%v)", key, v, ok)
		}
	}
	if samples["dbdc_model_epoch_seconds"] <= 0 {
		t.Error("model epoch gauge not set after a publish")
	}
}
