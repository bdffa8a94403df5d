package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric of the benchmark contract. The tables below are
// the program's side of BENCHMARK.json; TestSpecMatchesBenchmarkJSON keeps
// the two identical.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload reports
// all six. A bound is three times the widest spread measured over ten
// seeds on the shared 2-vCPU host (README.md, "Noise"): the timings move
// 5-8% there, and the byte and quality metrics, which repeat exactly on one
// seed, move 3% and 0.6% from one seed's data set to the next.
var endToEnd = []metricSpec{
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "points_per_s", Unit: "points/s", Better: "higher", Bound: 0.25},
	{Name: "uplink_bytes_per_kpoint", Unit: "B", Better: "lower", Bound: 0.15},
	{Name: "downlink_bytes_per_kpoint", Unit: "B", Better: "lower", Bound: 0.15},
	{Name: "quality_p2_pct", Unit: "%", Better: "higher", Bound: 0.03},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the traced run's metrics, layer = module name. README.md
// says how each is measured and which end-to-end metric it should move. A
// layer a workload does not execute reports 0.
var perLayer = []metricSpec{
	{Name: "data.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "index.build_ms", Unit: "ms", Better: "lower"},
	{Name: "dbscan.run_ms", Unit: "ms", Better: "lower"},
	{Name: "dbscan.range_queries", Unit: "count", Better: "lower"},
	{Name: "dbdc.local_ms", Unit: "ms", Better: "lower"},
	{Name: "dbdc.condense_ms", Unit: "ms", Better: "lower"},
	{Name: "dbdc.global_ms", Unit: "ms", Better: "lower"},
	{Name: "dbdc.global_reps", Unit: "count", Better: "lower"},
	{Name: "dbdc.relabel_ms", Unit: "ms", Better: "lower"},
	{Name: "model.local_marshal_us", Unit: "us", Better: "lower"},
	{Name: "model.local_unmarshal_us", Unit: "us", Better: "lower"},
	{Name: "model.global_marshal_us", Unit: "us", Better: "lower"},
	{Name: "model.global_unmarshal_us", Unit: "us", Better: "lower"},
	{Name: "model.local_bytes", Unit: "B", Better: "lower"},
	{Name: "model.global_bytes", Unit: "B", Better: "lower"},
	{Name: "model.delta_bytes", Unit: "B", Better: "lower"},
	{Name: "transport.exchange_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.server_round_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.wire_self_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.attempts", Unit: "count", Better: "lower"},
	{Name: "transport.retries", Unit: "count", Better: "lower"},
	{Name: "transport.stream_upload_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.rebuilds", Unit: "count", Better: "lower"},
	{Name: "incdbscan.insert_us", Unit: "us", Better: "lower"},
	{Name: "incdbscan.delete_us", Unit: "us", Better: "lower"},
	{Name: "stream.ingest_us", Unit: "us", Better: "lower"},
	{Name: "stream.policy_self_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.uploads", Unit: "count", Better: "lower"},
	{Name: "stream.delta_uploads", Unit: "count", Better: "higher"},
	{Name: "stream.resyncs", Unit: "count", Better: "lower"},
	{Name: "serve.request_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.classify_inproc_us_per_point", Unit: "us", Better: "lower"},
	{Name: "serve.wire_self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.swaps", Unit: "count", Better: "higher"},
	{Name: "serve.errors", Unit: "count", Better: "lower"},
	{Name: "shard.regions", Unit: "count", Better: "higher"},
	{Name: "shard.allocs", Unit: "count", Better: "lower"},
	{Name: "shard.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "shard.range_queries", Unit: "count", Better: "lower"},
	{Name: "shard.run_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "wall.op_med_ms", Unit: "ms", Better: "lower"},
	{Name: "wall.op_hi_ms", Unit: "ms", Better: "lower"},
	{Name: "wall.op_hi_pctile", Unit: "%", Better: "higher"},
	{Name: "wall.laps", Unit: "count", Better: "higher"},
	{Name: "wall.iqr_pct", Unit: "%", Better: "lower"},
	{Name: "host.cal_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.sum_pct", Unit: "%", Better: "higher"},
	{Name: "harness.reference_s", Unit: "s", Better: "lower"},
}

// workloadSpec names a workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkFile is the schema of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
