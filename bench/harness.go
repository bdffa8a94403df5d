package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
)

// params are the flags one run is made from.
type params struct {
	workload string
	seed     int64
	seconds  float64
	// scale shrinks round-bulk's data set for the tests; the other
	// workloads' inputs are small already. 1 is the benchmark.
	scale    float64
	traceOut string
}

// metrics maps a metric name to its value, in the unit spec.go gives it.
type metrics map[string]float64

// lapOut is what one lap did.
type lapOut struct {
	dur time.Duration // the timed region only
	// segs times the lap's segments: fixed consecutive parts of the lap,
	// segment k the same work in every lap. Empty means the lap is one
	// segment.
	segs     []time.Duration
	hash     uint64 // of the lap's canonical label vector
	up, down int64  // wire bytes inside the timed region
}

// workload is one deployment shape. Every method runs on the harness
// goroutine, one busy thread at a time.
type workload interface {
	// setup makes the inputs from the seed and builds everything a user
	// pays for before the first op: stores, partition, listeners, servers,
	// published models, dialled clients, and one warm-up lap.
	setup() error
	// lap runs the fixed unit of work once. With a tracer it records a span
	// at each call into a layer.
	lap(tr *tracer) (lapOut, error)
	// shape returns the ops in a lap and the points one op processes.
	shape() (opsPerLap int, pointsPerOp float64)
	// reference runs the harness's own reference work (the central DBSCAN
	// behind P^II, the in-process round), checks the laps' outputs against
	// it and returns P^II in percent.
	reference(firstLap lapOut) (qualityPct float64, err error)
	// probes prices single layers with calls of their own, outside any lap.
	probes(tr *tracer, m metrics) error
	// layers turns the mean profile of the traced laps into per-layer
	// metrics; probes has run before it.
	layers(p meanProfile, m metrics)
	close() error
}

func newWorkload(p params) (workload, error) {
	switch p.workload {
	case "round-bulk":
		return newRound(p, false), nil
	case "round-wire":
		return newRound(p, true), nil
	case "stream-churn":
		return newStreamChurn(p), nil
	case "classify-swap":
		return newClassifySwap(p), nil
	}
	return nil, fmt.Errorf("unknown workload %q", p.workload)
}

// timedSetup builds a fresh workload and reports what its set-up cost.
func timedSetup(p params) (workload, time.Duration, error) {
	w, err := newWorkload(p)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	start := time.Now()
	if err := w.setup(); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("%s: set-up: %w", p.workload, err)
	}
	return w, time.Since(start), nil
}

// lapLog collects the laps of all passes of one kind.
type lapLog struct {
	outs      []lapOut
	attempted int
	failed    int
	firstErr  error
}

// runPass runs laps for d. runtime.GC runs before every lap, outside the
// timer, so each lap starts from the same heap. A lap that errors, or whose
// labels or byte counts differ from the first lap's, is a failed op.
func runPass(w workload, d time.Duration, tr *tracer, log *lapLog) {
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		runtime.GC()
		out, err := w.lap(tr)
		log.attempted++
		if err == nil && len(log.outs) > 0 {
			first := log.outs[0]
			if out.hash != first.hash || out.up != first.up || out.down != first.down {
				err = fmt.Errorf("lap %d differs from lap 1: labels %x/%x, bytes up %d/%d down %d/%d",
					log.attempted, out.hash, first.hash, out.up, first.up, out.down, first.down)
			}
		}
		if err != nil {
			log.failed++
			if log.firstErr == nil {
				log.firstErr = err
			}
			continue
		}
		log.outs = append(log.outs, out)
	}
}

func (l *lapLog) millis() []float64 {
	laps := make([]float64, len(l.outs))
	for i, o := range l.outs {
		laps[i] = ms(o.dur)
	}
	return laps
}

// lapMs is the benchmark's estimate of what one lap costs on a quiet host,
// in ms: for every segment of the lap, the mean of the fastest tenth of
// that segment's timings over all laps, summed over the segments.
//
// Interference on a shared host only ever adds time, so the fast tail
// repeats where the median does not. It also comes in bursts shorter than a
// lap: a whole lap is clean only when all its segments are, while this
// estimate needs each segment clean in a tenth of the laps, not the same
// tenth. README.md has the measurements behind both choices.
func (l *lapLog) lapMs() float64 {
	if len(l.outs) == 0 {
		return 0
	}
	nseg := len(l.outs[0].segs)
	if nseg == 0 {
		return fastMean(l.millis())
	}
	var sum float64
	samples := make([]float64, len(l.outs))
	for k := 0; k < nseg; k++ {
		for i, o := range l.outs {
			samples[i] = ms(o.segs[k])
		}
		sum += fastMean(samples)
	}
	return sum
}

// fastestTenth returns the indexes of the fastest tenth of the samples, at
// least three. At the benchmark's run length every workload runs over a
// hundred laps, so a lap segment's tenth holds ten samples or more; the
// floor of three is for the probes, which repeat 30 to 200 times.
func fastestTenth(samples []float64) []int {
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return samples[idx[a]] < samples[idx[b]] })
	k := len(samples) / 10
	if k < 3 {
		k = 3
	}
	if k > len(samples) {
		k = len(samples)
	}
	return idx[:k]
}

// fastMean is the mean of the fastest tenth of the samples.
func fastMean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	fast := fastestTenth(samples)
	for _, i := range fast {
		sum += samples[i]
	}
	return sum / float64(len(fast))
}

// wallDiagnostics reports the untraced laps the way a latency report would:
// median, the highest percentile with ten laps beyond it, lap count and
// inter-quartile range. They are not gated: on a shared host they do not
// repeat within a tenth.
func wallDiagnostics(lapMs []float64, opsPerLap int, m metrics) {
	sorted := append([]float64(nil), lapMs...)
	sort.Float64s(sorted)
	n := len(sorted)
	m["wall.laps"] = float64(n)
	if n == 0 {
		return
	}
	med, iqr := medianAndSpread(sorted)
	hi := n - 11
	if hi < 0 {
		hi = n - 1
	}
	m["wall.op_med_ms"] = med / float64(opsPerLap)
	m["wall.op_hi_ms"] = sorted[hi] / float64(opsPerLap)
	m["wall.op_hi_pctile"] = 100 * float64(hi+1) / float64(n)
	m["wall.iqr_pct"] = 100 * iqr
}

// calibrate times a fixed kernel, the sum of squares over 1 MB of float64s,
// and returns the fastest-tenth time of one sweep. It does not normalise
// anything; it says whether two sets of runs saw equally loaded hosts.
func calibrate() float64 {
	buf := make([]float64, 1<<17)
	for i := range buf {
		buf[i] = float64(i&1023) * 0.5
	}
	samples := make([]float64, 200)
	var sink float64
	for r := range samples {
		start := time.Now()
		var s float64
		for _, v := range buf {
			s += v * v
		}
		samples[r] = ms(time.Since(start))
		sink += s
	}
	if sink == 0 {
		panic("calibration kernel optimised away")
	}
	return fastMean(samples)
}

// meanProfile is the mean lap profile over the fastest tenth of the traced
// laps, in milliseconds per lap.
type meanProfile struct {
	lapMs  float64
	self   map[string]float64 // synchronous self time by span name
	async  map[string]float64 // mean duration of one async span by name
	calls  map[string]float64 // synchronous spans per lap by name
	sumPct float64            // non-root self times over the lap
}

func meanOfFastest(profs []lapProfile) meanProfile {
	laps := make([]float64, len(profs))
	for i, p := range profs {
		laps[i] = ms(p.total)
	}
	fast := fastestTenth(laps)
	mp := meanProfile{self: map[string]float64{}, async: map[string]float64{}, calls: map[string]float64{}}
	if len(fast) == 0 {
		return mp
	}
	k := float64(len(fast))
	asyncN := map[string]float64{}
	for _, i := range fast {
		p := profs[i]
		mp.lapMs += laps[i] / k
		for name, d := range p.self {
			mp.self[name] += ms(d) / k
			mp.calls[name] += float64(p.calls[name]) / k
		}
		for name, d := range p.async {
			mp.async[name] += ms(d)
			asyncN[name] += float64(p.asyncCalls[name])
		}
	}
	for name := range mp.async {
		mp.async[name] /= asyncN[name]
	}
	var covered float64
	for name, v := range mp.self {
		if name != "lap" {
			covered += v
		}
	}
	mp.sumPct = 100 * covered / mp.lapMs
	return mp
}

// perCall is the mean self time in ms of one synchronous span of that name.
func (p meanProfile) perCall(name string) float64 {
	if p.calls[name] == 0 {
		return 0
	}
	return p.self[name] / p.calls[name]
}

// hashLabels hashes a label vector up to a renaming of the cluster ids, so
// that two runs that find the same partition hash the same.
func hashLabels(labels cluster.Labeling) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, id := range labels.Canonicalize() {
		b[0], b[1], b[2], b[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// sampleMemory runs a few laps of their own between runtime.ReadMemStats
// calls. Reading the statistics stops the world, so these laps are never
// timed.
func sampleMemory(w workload, opsPerLap int, m metrics) error {
	const laps = 5
	var before, after runtime.MemStats
	var allocBytes, allocs, gcs uint64
	for i := 0; i < laps; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := w.lap(nil); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		allocBytes += after.TotalAlloc - before.TotalAlloc
		allocs += after.Mallocs - before.Mallocs
		gcs += uint64(after.NumGC - before.NumGC)
	}
	perOp := float64(laps * opsPerLap)
	m["proc.alloc_mb_per_op"] = float64(allocBytes) / perOp / (1 << 20)
	m["proc.allocs_per_op"] = float64(allocs) / perOp
	m["proc.gc_cycles_per_op"] = float64(gcs) / perOp
	return nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   metrics
	note      string // first failure, for stderr
}

const (
	passes         = 3
	setupsPerBreak = 3 // fresh set-ups after each pass; 1 + passes*3 in a run
)

// runEndToEnd measures the six end-to-end metrics with tracing off. The
// measured time is split into passes separated in time by the repeated
// set-ups, so that a burst of interference cannot cover all of a run.
func runEndToEnd(p params) (*result, error) {
	w, first, err := timedSetup(p)
	if err != nil {
		return nil, err
	}
	defer w.close()
	setups := []float64{first.Seconds()}
	var log lapLog
	passDur := time.Duration(p.seconds / passes * float64(time.Second))
	for pass := 0; pass < passes; pass++ {
		runPass(w, passDur, nil, &log)
		for i := 0; i < setupsPerBreak; i++ {
			fresh, d, err := timedSetup(p)
			if err != nil {
				return nil, err
			}
			if err := fresh.close(); err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
	}
	res := &result{attempted: log.attempted, failed: log.failed, metrics: metrics{}}
	if log.firstErr != nil {
		res.note = log.firstErr.Error()
	}
	if len(log.outs) == 0 {
		return nil, fmt.Errorf("%s: no lap succeeded: %v", p.workload, log.firstErr)
	}
	quality, err := w.reference(log.outs[0])
	if err != nil {
		res.note = err.Error()
	}
	res.correct = log.failed == 0 && err == nil

	ops, points := w.shape()
	opMs := log.lapMs() / float64(ops)
	kpointsPerLap := float64(ops) * points / 1000
	sort.Float64s(setups)
	m := res.metrics
	m["op_ms"] = opMs
	m["points_per_s"] = points / opMs * 1000
	m["uplink_bytes_per_kpoint"] = float64(log.outs[0].up) / kpointsPerLap
	m["downlink_bytes_per_kpoint"] = float64(log.outs[0].down) / kpointsPerLap
	m["quality_p2_pct"] = quality
	m["setup_s"] = (setups[0] + setups[1] + setups[2]) / 3
	return res, nil
}

// runTraced measures the per-layer metrics: untraced laps for the wall
// diagnostics, traced laps for the spans, the two kinds taking turns so
// that the tracing overhead compares laps from the same minutes; then the
// memory counters and the probes. Its timings never reach an end-to-end
// metric.
func runTraced(p params, host hostStamp) (*result, error) {
	w, _, err := timedSetup(p)
	if err != nil {
		return nil, err
	}
	defer w.close()
	m := metrics{}
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	ops, _ := w.shape()

	var plain, traced lapLog
	tr := newTracer()
	turn := time.Duration(p.seconds / passes * float64(time.Second))
	for pass := 0; pass < passes; pass++ {
		runPass(w, 35*turn/100, nil, &plain)
		runPass(w, 45*turn/100, tr, &traced)
	}
	m["host.cal_ms"] = calibrate()
	if len(plain.outs) == 0 || len(traced.outs) == 0 {
		return nil, fmt.Errorf("%s: no lap succeeded: %v", p.workload, errors.Join(plain.firstErr, traced.firstErr))
	}
	res := &result{attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed, metrics: m}
	if err := errors.Join(plain.firstErr, traced.firstErr); err != nil {
		res.note = err.Error()
	}
	if traced.outs[0].hash != plain.outs[0].hash {
		res.failed++
		res.note = "traced laps label differently from untraced laps"
	}

	wallDiagnostics(plain.millis(), ops, m)
	if err := sampleMemory(w, ops, m); err != nil {
		return nil, err
	}
	untraced, withSpans := plain.lapMs(), traced.lapMs()
	m["trace.overhead_pct"] = 100 * (withSpans - untraced) / untraced

	if err := w.probes(tr, m); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", p.workload, err)
	}
	mp := meanOfFastest(tr.profiles())
	m["trace.sum_pct"] = mp.sumPct
	m[infoPrefix+"trace.lap_ms"] = mp.lapMs
	w.layers(mp, m)

	refStart := time.Now()
	if _, err := w.reference(plain.outs[0]); err != nil {
		res.note = err.Error()
		res.failed++
	}
	m["harness.reference_s"] = time.Since(refStart).Seconds()
	m["proc.peak_rss_mb"] = peakRSSMB()
	res.correct = res.failed == 0

	if p.traceOut != "" {
		if err := tr.write(p.traceOut, host, p.workload, p.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}
