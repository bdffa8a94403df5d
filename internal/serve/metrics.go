package serve

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// latencyBuckets are the fixed histogram bucket upper bounds in seconds:
// 20 exponential buckets from 10µs to ~5s (factor ~2), wide enough for an
// in-process loopback hit and a cross-continent round trip alike. Fixed
// buckets keep Observe lock-free (one atomic add) and make scrapes from
// different processes mergeable.
var latencyBuckets = func() []float64 {
	b := make([]float64, 0, 20)
	for v := 10e-6; len(b) < 20; v *= 2 {
		b = append(b, v)
	}
	return b
}()

// Histogram is a fixed-bucket latency histogram with lock-free observation
// and Prometheus-compatible cumulative export. The zero value is not
// usable; use NewHistogram.
type Histogram struct {
	bounds []float64 // upper bounds in seconds, ascending
	counts []atomic.Uint64
	inf    atomic.Uint64 // observations above the last bound
	count  atomic.Uint64
	sumNs  atomic.Int64
}

// NewHistogram returns a histogram over the package's fixed latency
// buckets.
func NewHistogram() *Histogram {
	return &Histogram{
		bounds: latencyBuckets,
		counts: make([]atomic.Uint64, len(latencyBuckets)),
	}
}

// Observe records one latency sample. Safe for concurrent use.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	// Binary search for the first bound >= s.
	i := sort.SearchFloat64s(h.bounds, s)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed latencies.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the containing bucket, the standard Prometheus histogram_quantile
// estimator. Returns 0 with no observations; samples beyond the last
// bucket clamp to the last bound.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	lower := 0.0
	for i, bound := range h.bounds {
		c := h.counts[i].Load()
		if c > 0 && float64(cum)+float64(c) >= rank {
			within := (rank - float64(cum)) / float64(c)
			return time.Duration((lower + within*(bound-lower)) * float64(time.Second))
		}
		cum += c
		lower = bound
	}
	return time.Duration(h.bounds[len(h.bounds)-1] * float64(time.Second))
}

// snapshotCumulative returns the cumulative bucket counts aligned with the
// bounds, plus the total. Cumulative counts are what the Prometheus text
// format wants (le buckets include everything below).
func (h *Histogram) snapshotCumulative() (cum []uint64, total uint64) {
	cum = make([]uint64, len(h.bounds))
	var run uint64
	for i := range h.bounds {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, run + h.inf.Load()
}

// Metrics aggregates the serving-side observability signals: request/error
// counters, a latency histogram, and model-version gauges read live from
// the registry. All methods are safe for concurrent use.
type Metrics struct {
	start    time.Time
	registry *Registry

	// Requests counts classification requests (frames) handled;
	// Errors the subset answered with MsgError; Points and Noise count
	// classified points and the noise-labelled subset; ActiveConns tracks
	// open classification connections.
	Requests    atomic.Uint64
	Errors      atomic.Uint64
	Points      atomic.Uint64
	Noise       atomic.Uint64
	ActiveConns atomic.Int64

	// Latency is the per-request service-time histogram (request decoded →
	// reply written).
	Latency *Histogram
}

// NewMetrics returns a metrics hub bound to the registry (nil is allowed;
// the model gauges then report zero).
func NewMetrics(reg *Registry) *Metrics {
	return &Metrics{start: time.Now(), registry: reg, Latency: NewHistogram()}
}

// QPS returns the average request rate since process start — a coarse
// convenience figure; rate() over the scraped counters is the precise one.
func (m *Metrics) QPS() float64 {
	el := time.Since(m.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(m.Requests.Load()) / el
}

// WritePrometheus renders all metrics in the Prometheus text exposition
// format (version 0.0.4), the format every Prometheus-compatible scraper
// parses.
func (m *Metrics) WritePrometheus(w io.Writer) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gaugeF := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("dbdc_classify_requests_total", "Classification requests handled.", m.Requests.Load())
	counter("dbdc_classify_errors_total", "Classification requests answered with an error.", m.Errors.Load())
	counter("dbdc_classify_points_total", "Points classified.", m.Points.Load())
	counter("dbdc_classify_noise_points_total", "Classified points labelled noise.", m.Noise.Load())
	gaugeF("dbdc_classify_active_connections", "Open classification connections.", float64(m.ActiveConns.Load()))
	gaugeF("dbdc_classify_qps", "Average classification requests per second since start.", m.QPS())
	gaugeF("dbdc_process_uptime_seconds", "Seconds since the serving process started.", time.Since(m.start).Seconds())

	// Latency histogram + precomputed quantile gauges (p50/p95/p99). The
	// histogram is the source of truth; the gauges save the dashboard a
	// histogram_quantile() for the three common percentiles.
	h := m.Latency
	name := "dbdc_classify_latency_seconds"
	fmt.Fprintf(w, "# HELP %s Classification request service time.\n# TYPE %s histogram\n", name, name)
	cum, total := h.snapshotCumulative()
	for i, bound := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(bound), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum().Seconds())
	fmt.Fprintf(w, "%s_count %d\n", name, total)
	qname := "dbdc_classify_latency_quantile_seconds"
	fmt.Fprintf(w, "# HELP %s Precomputed latency percentiles (p50/p95/p99).\n# TYPE %s gauge\n", qname, qname)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		fmt.Fprintf(w, "%s{quantile=%q} %g\n", qname, formatFloat(q), h.Quantile(q).Seconds())
	}

	// Model gauges from the registry: version (strictly monotone across
	// hot swaps), publication epoch, and model shape.
	var version, reps, clusters uint64
	var epoch float64
	var published, rejected uint64
	if m.registry != nil {
		published = m.registry.Published()
		rejected = m.registry.Rejected()
		if s := m.registry.Current(); s != nil {
			version = s.Version
			epoch = float64(s.Published.UnixNano()) / 1e9
			reps = uint64(len(s.Global.Reps))
			clusters = uint64(s.Global.NumClusters)
		}
	}
	gaugeF("dbdc_model_version", "Version of the currently served global model (0 = none yet).", float64(version))
	gaugeF("dbdc_model_epoch_seconds", "Unix time the current model version was published.", epoch)
	gaugeF("dbdc_model_representatives", "Representatives in the currently served global model.", float64(reps))
	gaugeF("dbdc_model_clusters", "Global clusters in the currently served model.", float64(clusters))
	counter("dbdc_model_publications_total", "Successful model publications into the registry.", published)
	counter("dbdc_model_rejected_total", "Models refused by the registry (validation or build failure).", rejected)
}

// formatFloat renders a float the way Prometheus label values expect
// (shortest representation, no exponent surprises for our magnitudes).
func formatFloat(v float64) string { return fmt.Sprintf("%g", v) }

// ServeHTTP implements http.Handler: a GET returns the Prometheus text
// exposition.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.WritePrometheus(w)
}

// ListenAndServe exposes the metrics on addr under /metrics (and on / for
// curl convenience) until the returned closer is called. It binds
// synchronously — the endpoint is scrapable when ListenAndServe returns —
// and serves in the background.
func (m *Metrics) ListenAndServe(addr string) (closeFn func() error, boundAddr string, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("serve: metrics listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", m)
	mux.Handle("/", m)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return srv.Close, ln.Addr().String(), nil
}
