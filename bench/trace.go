package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness at the
// public-call boundary. Times are nanoseconds since the tracer started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a lap's root span
	Lap    int32  `json:"lap"`    // -1 for probes, which run outside laps
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Probe marks a call the harness repeats outside the lap to price a
	// layer the lap only reaches through another layer.
	Probe bool `json:"probe,omitempty"`
	// Async marks a span that ran on another goroutine while its parent
	// waited (the two site uploads and the server's round). It is shown in
	// the trace but is not subtracted from its parent's self time, or two
	// overlapping children would be counted twice.
	Async bool `json:"async,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced laps run the same code with no clock reads.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex // guards spans: async spans open and close on other goroutines
	spans []span

	// Harness goroutine only.
	stack []int32 // open synchronous spans
	lap   int32   // the current lap, -1 before the first
}

func newTracer() *tracer { return &tracer{t0: time.Now(), lap: -1} }

func (t *tracer) open(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int32(len(t.spans))
	if s.Async && s.Parent >= 0 {
		s.Lap = t.spans[s.Parent].Lap
	}
	s.Start = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	return s.ID
}

// close ends the span and returns its duration.
func (t *tracer) close(id int32) time.Duration {
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	return time.Duration(end - t.spans[id].Start)
}

// beginLap opens the root span of the next lap.
func (t *tracer) beginLap() int32 {
	if t == nil {
		return -1
	}
	t.lap++
	id := t.open(span{Name: "lap", Parent: -1, Lap: t.lap})
	t.stack = append(t.stack[:0], id)
	return id
}

// begin opens a synchronous span under the innermost open one. Harness
// goroutine only.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := t.open(span{Name: name, Parent: parent, Lap: t.lap})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin (or beginLap) returned.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.close(id)
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// async opens a span on behalf of another goroutine, in the lap of the given
// parent, and returns the function that closes it. Safe for concurrent use.
func (t *tracer) async(name string, parent int32) func() {
	if t == nil {
		return func() {}
	}
	id := t.open(span{Name: name, Parent: parent, Lap: -1, Async: true})
	return func() { t.close(id) }
}

// probe times fn once as a probe span outside any lap.
func (t *tracer) probe(name string, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id := t.open(span{Name: name, Parent: -1, Lap: -1, Probe: true})
	fn()
	return t.close(id)
}

// lapProfile is what one traced lap spent: the root span's duration and the
// self time of every synchronous span name under it.
type lapProfile struct {
	total      time.Duration
	self       map[string]time.Duration // by span name, root included as "lap"
	calls      map[string]int
	async      map[string]time.Duration // summed async spans by name
	asyncCalls map[string]int
}

// profiles folds the recorded spans into one profile per lap. A span's self
// time is its duration minus the time its synchronous children cover.
func (t *tracer) profiles() []lapProfile {
	if t == nil {
		return nil
	}
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && !s.Async {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make([]lapProfile, t.lap+1)
	for i := range out {
		out[i] = lapProfile{
			self: map[string]time.Duration{}, calls: map[string]int{},
			async: map[string]time.Duration{}, asyncCalls: map[string]int{},
		}
	}
	for _, s := range t.spans {
		if s.Lap < 0 {
			continue
		}
		p := &out[s.Lap]
		d := time.Duration(s.End - s.Start)
		if s.Async {
			p.async[s.Name] += d
			p.asyncCalls[s.Name]++
			continue
		}
		if s.Parent < 0 {
			p.total = d
		}
		p.self[s.Name] += d - time.Duration(covered[s.ID])
		p.calls[s.Name]++
	}
	return out
}

// write stores the spans as one JSON document: the host stamp, then the
// spans ordered by start time.
func (t *tracer) write(path string, host hostStamp, workload string, seed int64) error {
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	doc := struct {
		Host     hostStamp `json:"host"`
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []span    `json:"spans"`
	}{host, workload, seed, spans}
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
