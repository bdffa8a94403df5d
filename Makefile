# Development entry points for the dbdc library.

GO ?= go

.PHONY: all build test test-short test-race test-scalar check fuzz-smoke bench bench-json bench-smoke bench-pairs benchdiff loadgen-smoke agg-smoke vet experiments examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# The differential twin of the default kernel build: every stride runs the
# plain scalar loop (internal/geom/kernels_scalar.go). The packages listed are
# the ones whose output depends on a distance kernel — the incremental
# clusterer and the streaming site among them, since the dynamic R*-tree
# verifies its leaves on the store kernels; the five identity digests
# (clustering, local-model frame, wire, bulk layout, dynamic layout) must come
# out the same under both builds. CI runs this on every push.
test-scalar:
	$(GO) test -tags dbdc_scalar_kernels ./internal/geom/ ./internal/index/... ./internal/dbscan/ ./internal/dbdc/ ./internal/transport/ ./internal/incdbscan/ ./internal/stream/

# The CI gate: static checks, build, race-enabled tests.
check: vet build test-race

# Short native-fuzzing smoke over every fuzz target (decoders must never
# panic on arbitrary bytes; kernels, the fused verifiers and the packed
# R*-tree query must match their references, its unseen-aware by-id query the
# contract of index.UnseenRangeAppender; the dynamic R*-tree must keep its
# invariants, answer like a linear scan and choose subtrees like the all-pairs
# rule after every operation; incremental DBSCAN must match batch DBSCAN after
# every operation; the leaf-wise relabel must label like the per-point rule).
# CI runs this on push; use a larger FUZZTIME locally before touching the wire
# formats, internal/index/rstar, internal/incdbscan or dbdc.RelabelSite.
# FuzzTreeOps and FuzzIncOps cap minimisation: shrinking a coverage-only find
# replays whole op sequences and would otherwise eat the budget.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/transport/ -run '^$$' -fuzz 'FuzzReadFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzBudgetSections -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzAggSections -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model/ -run '^$$' -fuzz FuzzLocalModelUnmarshal -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model/ -run '^$$' -fuzz FuzzGlobalModelUnmarshal -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model/ -run '^$$' -fuzz FuzzLocalDeltaUnmarshal -fuzztime $(FUZZTIME)
	$(GO) test ./internal/geom/ -run '^$$' -fuzz 'FuzzStoreDistanceSq$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/geom/ -run '^$$' -fuzz FuzzDistanceSqBatch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/geom/ -run '^$$' -fuzz FuzzVerifyRangeSq -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index/rstar/ -run '^$$' -fuzz FuzzBulkRange -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index/rstar/ -run '^$$' -fuzz FuzzRangeUnseen -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index/rstar/ -run '^$$' -fuzz FuzzTreeOps -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/incdbscan/ -run '^$$' -fuzz FuzzIncOps -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/dbdc/ -run '^$$' -fuzz FuzzRelabelSite -fuzztime $(FUZZTIME)

# Full benchmark sweep: one benchmark per paper figure/table plus the
# ablations. Expect several minutes (Figure 8 runs a 203,000-point study).
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path benchmark sweep recorded as a committed artifact: runs the
# BenchmarkLocalClustering suite (naive metric arm vs store kernels per
# index kind, worker scaling per kind and in 8-d, representative budgets) plus
# BenchmarkStoreKernels (strided vs slice distance kernels, allocation-free
# range loops) and BenchmarkLoadgenClassify (loopback classification serving
# throughput) and converts the output into BENCH_<shortrev>.json via
# cmd/benchjson. The raw text passes through to stdout unchanged, so the same
# pipeline feeds benchstat:
#
#   make bench-json BENCHFLAGS='-count=10' | tee new.txt
#   benchstat old.txt new.txt    # any `go test -bench` text file works
#
# See docs/performance.md for how to read the JSON.
BENCHFLAGS ?=
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkLocalClustering|BenchmarkStoreKernels|BenchmarkLoadgenClassify' -benchmem $(BENCHFLAGS) . \
		| $(GO) run ./cmd/benchjson -rev $$(git rev-parse --short HEAD)

# One-iteration smoke over the hot-path suite, the STR bulk build at three
# sizes and in 8-d, the incremental layer's window-turn benchmark (ns, allocs
# and range queries per delete-oldest + insert), the dynamic R*-tree's insert
# benchmark and step 4 on a round-bulk site (ns and dist-evals/op, leaf by leaf
# and by representative): catches benchmarks that no longer compile or crash,
# without paying measurement time. CI runs this.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkLocalClustering|BenchmarkStoreKernels|BenchmarkLoadgenClassify|BenchmarkAblationRStarBuild/bulk' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkRelabelSite' -benchtime 1x -benchmem ./internal/dbdc/
	$(GO) test -run '^$$' -bench 'BenchmarkWindowTurn' -benchtime 1x -benchmem ./internal/incdbscan/
	$(GO) test -run '^$$' -bench 'BenchmarkInsert$$' -benchtime 1x -benchmem ./internal/index/rstar/

# Alternating parent/change pairs of one workload of the repository benchmark
# (scripts/bench_pairs.sh): PARENT is exported into .bench_build/ with the
# working tree's bench/ laid over it, both binaries are built once and run in
# turn, tracing off; prints every run, medians, quartiles, pairs won and the
# verdict a claimed gain needs (at least 9/10 pairs, medians apart by more than
# the parent's inter-quartile distance). Refuses to run when bench/ or
# BENCHMARK.json differs from PARENT's. PAIRFLAGS goes to the harness, e.g.
# PAIRFLAGS='--seconds 8' for a quick look; the claim wants the default.
#
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=round-bulk SEED=2 PAIRS=10
PARENT ?= HEAD~1
WORKLOAD ?= round-bulk
SEED ?= 1
PAIRS ?= 10
PAIRFLAGS ?=
bench-pairs:
	bash scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(SEED) $(PAIRS) -- $(PAIRFLAGS)

# Run the hot-path suite and diff it against the committed baseline artifact
# with cmd/benchdiff. BASELINE defaults to the newest committed BENCH_*.json;
# DIFFFLAGS passes through to benchdiff (e.g. DIFFFLAGS='-fail -threshold
# 0.25' to gate). Crank BENCHFLAGS='-count=5 -benchtime 2s' for less noise —
# the default single run trips the 10% threshold on timing jitter alone.
BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
DIFFFLAGS ?=
benchdiff:
	@test -n "$(BASELINE)" || { echo "benchdiff: no committed BENCH_*.json baseline"; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkLocalClustering|BenchmarkStoreKernels|BenchmarkLoadgenClassify' -benchmem $(BENCHFLAGS) . \
		| $(GO) run ./cmd/benchjson -rev $$(git rev-parse --short HEAD) -out /tmp/dbdc-bench-new.json >/dev/null
	$(GO) run ./cmd/benchdiff $(DIFFFLAGS) $(BASELINE) /tmp/dbdc-bench-new.json

# Serving smoke: the in-process twin of a dbdc-loadgen run — boots a
# classification front end, drives closed-loop load against it for both
# request shapes and checks the benchio report is coherent (see
# docs/serving.md). CI runs this plus the serve package under -race.
loadgen-smoke:
	$(GO) test -race -run 'TestLoadgenSmoke' -count=1 -v ./internal/serve/

# Aggregation-tree smoke: boots a loopback two-level tree out of the real
# binaries (4 dbdc-site -> 2 dbdc-agg -> dbdc-server), checks every
# process exits clean, every site labels all its points against the root
# model, and the provenance sections reach the root's report. See
# docs/hierarchy.md. CI runs this plus internal/aggtree under -race.
agg-smoke:
	sh scripts/agg_smoke.sh

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/experiments -run all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/distributed
	$(GO) run ./examples/astronomy
	$(GO) run ./examples/retail
	$(GO) run ./examples/monitoring

clean:
	$(GO) clean ./...
