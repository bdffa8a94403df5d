package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
)

// LoadConfig parameterises one load generation run. The default is the
// closed loop: every worker owns one persistent connection and keeps exactly
// one request in flight (send, wait, record, repeat), so offered load adapts
// to what the server sustains. Rate > 0 switches to the open loop, where
// arrivals are generated at the target rate regardless of server speed.
type LoadConfig struct {
	// Addr is the classification front end to hit.
	Addr string
	// Concurrency is the number of workers (connections); 0 = GOMAXPROCS.
	Concurrency int
	// Duration is how long the run lasts; 0 = 5s.
	Duration time.Duration
	// BatchSize is the points per request: 1 sends MsgClassify frames,
	// anything larger MsgClassifyBatch. 0 = 1.
	BatchSize int
	// Points is the query point pool; workers cycle through it at
	// staggered offsets. Required, non-empty.
	Points []geom.Point
	// Timeout bounds dial and per-request I/O; 0 = 10s.
	Timeout time.Duration
	// Rate > 0 selects open-loop mode: request arrivals follow a Poisson
	// process at this aggregate target rate (requests/second) no matter how
	// fast the server answers. Latency is then measured from the scheduled
	// arrival time, so queueing delay under overload lands in the tail
	// percentiles instead of silently throttling the offered load — the
	// coordinated-omission problem closed loops cannot see. 0 = closed loop.
	Rate float64
	// Seed seeds the Poisson arrival process of the open-loop mode; 0 = 1.
	Seed int64
}

// LoadResult aggregates a load run.
type LoadResult struct {
	// Config echoes the effective (defaults-resolved) configuration.
	Config LoadConfig
	// Requests counts completed successful requests; Errors failed ones
	// (error replies, I/O failures — each followed by a reconnect).
	Requests uint64
	Errors   uint64
	// PointsClassified and NoisePoints count labelled points and the
	// noise-labelled subset.
	PointsClassified uint64
	NoisePoints      uint64
	// MinVersion and MaxVersion bracket the model versions observed in
	// replies — under a hot-swapping server the range documents how many
	// swaps the run straddled.
	MinVersion uint64
	MaxVersion uint64
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
	// Latency is the client-observed request latency histogram. In the open
	// loop it measures from the scheduled arrival, so it includes queue wait.
	Latency *Histogram
	// ArrivalsDropped (open loop only) counts arrivals shed because the
	// backlog exceeded the queue capacity — the server fell behind the
	// offered rate by more than ~1s of load.
	ArrivalsDropped uint64
	// MaxQueueDepth (open loop only) is the deepest arrival backlog
	// observed; 0 means the server kept up with every arrival instantly.
	MaxQueueDepth int
}

// QPS returns completed requests per wall-clock second — in the open loop,
// the achieved rate to compare against Config.Rate.
func (r *LoadResult) QPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// PointsPerSec returns classified points per wall-clock second.
func (r *LoadResult) PointsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.PointsClassified) / r.Elapsed.Seconds()
}

// String renders a human-readable run summary.
func (r *LoadResult) String() string {
	s := fmt.Sprintf(
		"loadgen: conc=%d batch=%d dur=%s: %d requests (%.0f req/s, %.0f points/s), %d errors, "+
			"p50=%s p95=%s p99=%s, noise %.1f%%, model versions %d..%d",
		r.Config.Concurrency, r.Config.BatchSize, r.Elapsed.Round(time.Millisecond),
		r.Requests, r.QPS(), r.PointsPerSec(), r.Errors,
		r.Latency.Quantile(0.5).Round(time.Microsecond),
		r.Latency.Quantile(0.95).Round(time.Microsecond),
		r.Latency.Quantile(0.99).Round(time.Microsecond),
		100*float64(r.NoisePoints)/float64(max(r.PointsClassified, 1)),
		r.MinVersion, r.MaxVersion)
	if r.Config.Rate > 0 {
		s += fmt.Sprintf(", open loop: target %.0f req/s achieved %.0f, max queue %d, %d dropped",
			r.Config.Rate, r.QPS(), r.MaxQueueDepth, r.ArrivalsDropped)
	}
	return s
}

// loadStats aggregates the counters shared by the closed- and open-loop
// drivers. All fields are safe for concurrent workers.
type loadStats struct {
	requests, errs, points, noise atomic.Uint64
	minVer, maxVer                atomic.Uint64
	latency                       *Histogram
}

func newLoadStats() *loadStats {
	s := &loadStats{latency: NewHistogram()}
	s.minVer.Store(^uint64(0))
	return s
}

// record books one successful request.
func (s *loadStats) record(labels []cluster.ID, version uint64, lat time.Duration) {
	s.latency.Observe(lat)
	s.requests.Add(1)
	s.points.Add(uint64(len(labels)))
	n := 0
	for _, l := range labels {
		if l == cluster.Noise {
			n++
		}
	}
	s.noise.Add(uint64(n))
	for {
		cur := s.minVer.Load()
		if version >= cur || s.minVer.CompareAndSwap(cur, version) {
			break
		}
	}
	for {
		cur := s.maxVer.Load()
		if version <= cur || s.maxVer.CompareAndSwap(cur, version) {
			break
		}
	}
}

// fill copies the totals into the result.
func (s *loadStats) fill(res *LoadResult) {
	res.Latency = s.latency
	res.Requests = s.requests.Load()
	res.Errors = s.errs.Load()
	res.PointsClassified = s.points.Load()
	res.NoisePoints = s.noise.Load()
	if res.Requests > 0 {
		res.MinVersion = s.minVer.Load()
		res.MaxVersion = s.maxVer.Load()
	}
}

// loadWorker owns one connection plus the per-worker batch buffer; the
// closed- and open-loop drivers share its dial/request/record cycle.
type loadWorker struct {
	cfg    *LoadConfig
	stats  *loadStats
	offset int
	batch  []geom.Point
	client *Client
}

func newLoadWorker(cfg *LoadConfig, stats *loadStats, worker int) *loadWorker {
	return &loadWorker{
		cfg:   cfg,
		stats: stats,
		// Stagger the pool offset so workers do not hammer identical
		// batches in lockstep.
		offset: (worker * len(cfg.Points)) / cfg.Concurrency,
		batch:  make([]geom.Point, cfg.BatchSize),
	}
}

func (w *loadWorker) close() {
	if w.client != nil {
		w.client.Close()
		w.client = nil
	}
}

// ensureConn dials if the worker has no live connection, counting a failed
// dial as one error.
func (w *loadWorker) ensureConn() bool {
	if w.client != nil {
		return true
	}
	c, err := Dial(w.cfg.Addr, w.cfg.Timeout)
	if err != nil {
		w.stats.errs.Add(1)
		return false
	}
	w.client = c
	return true
}

// requestFrom issues one request and records its latency measured from base:
// the send instant in the closed loop, the scheduled arrival in the open
// loop (charging queue wait to the tail). A failed request costs the worker
// its connection (counted as one error).
func (w *loadWorker) requestFrom(base time.Time) {
	for i := range w.batch {
		w.batch[i] = w.cfg.Points[w.offset%len(w.cfg.Points)]
		w.offset++
	}
	var labels []cluster.ID
	var version uint64
	var err error
	if w.cfg.BatchSize == 1 {
		var l cluster.ID
		l, version, err = w.client.Classify(w.batch[0])
		labels = append(labels[:0], l)
	} else {
		labels, version, err = w.client.ClassifyBatch(w.batch)
	}
	if err != nil {
		w.stats.errs.Add(1)
		w.close()
		return
	}
	w.stats.record(labels, version, time.Since(base))
}

// RunLoad executes one load run against cfg.Addr. With Rate == 0 the run is
// closed-loop: workers dial their own connections, cycle through the point
// pool at staggered offsets and keep one request in flight each until the
// duration elapses. Rate > 0 selects the open loop (see runOpenLoad). The
// run only fails outright when not a single request succeeded.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("serve: loadgen needs an address")
	}
	if len(cfg.Points) == 0 {
		return nil, fmt.Errorf("serve: loadgen needs a non-empty query point pool")
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("serve: loadgen rate %v must be >= 0", cfg.Rate)
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = runtime.GOMAXPROCS(0)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Rate > 0 {
		return runOpenLoad(cfg)
	}

	res := &LoadResult{Config: cfg}
	stats := newLoadStats()
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			lw := newLoadWorker(&cfg, stats, worker)
			defer lw.close()
			for time.Now().Before(deadline) {
				if !lw.ensureConn() {
					time.Sleep(10 * time.Millisecond) // closed loop: back off on dial failure
					continue
				}
				lw.requestFrom(time.Now())
			}
		}(w)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	stats.fill(res)
	return res, finishErr(res)
}

// runOpenLoad executes one open-loop run: a generator goroutine produces
// request arrivals as a Poisson process at cfg.Rate (exponential
// inter-arrival gaps — the memoryless traffic model) and enqueues the
// scheduled arrival times; workers drain the queue and measure latency from
// the scheduled arrival. Under overload the queue grows and its wait shows
// up in p95/p99 — the behavior a closed loop masks by slowing its own offered
// load (coordinated omission).
func runOpenLoad(cfg LoadConfig) (*LoadResult, error) {
	res := &LoadResult{Config: cfg}
	stats := newLoadStats()
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	// Bound the backlog at roughly one second of offered load (clamped to
	// [64, 65536]): a server that falls further behind sheds arrivals —
	// counted and reported — instead of blocking the generator, which would
	// silently degrade the run back into a closed loop.
	qcap := int(cfg.Rate)
	if qcap < 64 {
		qcap = 64
	}
	if qcap > 1<<16 {
		qcap = 1 << 16
	}
	arrivals := make(chan time.Time, qcap)
	var maxDepth atomic.Int64
	var dropped atomic.Uint64

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	go func() {
		defer close(arrivals)
		rng := rand.New(rand.NewSource(seed))
		next := start
		for {
			next = next.Add(time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second)))
			if next.After(deadline) {
				return
			}
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			select {
			case arrivals <- next:
				if depth := int64(len(arrivals)); depth > maxDepth.Load() {
					maxDepth.Store(depth) // single writer: no CAS needed
				}
			default:
				dropped.Add(1)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			lw := newLoadWorker(&cfg, stats, worker)
			defer lw.close()
			for arrival := range arrivals {
				if !lw.ensureConn() {
					continue // the arrival is spent; counted as an error
				}
				lw.requestFrom(arrival)
			}
		}(w)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	stats.fill(res)
	res.ArrivalsDropped = dropped.Load()
	res.MaxQueueDepth = int(maxDepth.Load())
	return res, finishErr(res)
}

// finishErr turns an all-failure run into an error.
func finishErr(res *LoadResult) error {
	if res.Requests == 0 {
		return fmt.Errorf("serve: loadgen completed no request in %s (%d errors)",
			res.Elapsed.Round(time.Millisecond), res.Errors)
	}
	return nil
}
