# Development entry points for the dbdc library.

GO ?= go

.PHONY: all build test test-short test-race test-scalar check gofmt bench-module index-guard conn-guard wire-guard cite-guard fuzz-smoke bench bench-smoke bench-pairs loadgen-smoke agg-smoke vet experiments examples clean

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
# clusterer and the streaming site among them, since the clusterer's ε-cells
# verify their lists on the store kernels; the four identity digests
# (clustering, local-model frame, wire, bulk layout) must come out the same
# under both builds. CI runs this on every push.
test-scalar:
	$(GO) test -tags dbdc_scalar_kernels ./internal/geom/ ./internal/index/... ./internal/dbscan/ ./internal/dbdc/ ./internal/transport/ ./internal/incdbscan/ ./internal/stream/

# The CI gate, the steps of CI's check job: static checks, formatting, build,
# race-enabled tests and the benchmark module.
check: vet gofmt build index-guard conn-guard wire-guard cite-guard test-race bench-module

# Fails if a tracked Go file is not gofmt-formatted, and names it.
gofmt:
	@files=$$(gofmt -l $$(git ls-files '*.go')); \
		test -z "$$files" || { echo "gofmt: not formatted:"; echo "$$files"; exit 1; }

# bench/ is a module of its own, so the targets above never compile it: check
# here that it still builds against the packages it measures.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -short -count=1 ./...

# The guards below each run one git grep over the working tree, untracked
# files included, and end in $(call verdict,MESSAGE): exit status 1 (no
# match) passes, a match fails with MESSAGE, and so does a git grep error
# (status above 1) — a search that did not run never reads as a clean one.
verdict = s=$$?; test $$s -eq 1 || { echo '$@: $(1)'; test $$s -eq 0 || echo "$@: git grep failed with status $$s"; exit 1; }

# Every static index is its store plus its leaves (the internal/index package
# comment): it lays the points out and queries none of them, so it has no
# per-query scratch to pool, nothing to materialise once and no distance to
# verify — a neighbourhood is dbscan's walk over the near leaves, through the
# store kernels, under the one metric the pipeline knows, the Euclidean. And
# the pipeline has one access method, the R*-tree: the linear scan is the
# tests' oracle. Fails if a non-test file under internal/index mentions
# sync.Pool or sync.Once, calls a metric's Distance or calls a store verifier
# (VerifyRangeSq, DistanceSqBatch), or a non-test Go file outside bench/
# mentions geom.Metric or calls a .Metric() method, or one outside
# internal/index and bench/ names KindLinear or NewLinearStore.
index-guard:
	@git grep --untracked -nE 'sync\.(Pool|Once)' -- 'internal/index/*.go' ':(exclude)*_test.go'; \
		$(call verdict,sync.Pool or sync.Once under internal/index)
	@git grep --untracked -nE '\.Distance\(' -- 'internal/index/*.go' ':(exclude)*_test.go'; \
		$(call verdict,a Distance call under internal/index)
	@git grep --untracked -nE 'geom\.Metric\b|\.Metric\(\)' -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/*'; \
		$(call verdict,geom.Metric or a .Metric() call outside bench/)
	@git grep --untracked -nE '\b(KindLinear|NewLinearStore)\b' -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/*' \
		':(exclude)internal/index/*'; \
		$(call verdict,the linear scan selected outside internal/index and bench/)
	@git grep --untracked -nE '(VerifyRangeSq|DistanceSqBatch)\(' -- 'internal/index/*.go' ':(exclude)*_test.go'; \
		$(call verdict,a store verifier called under internal/index)

# Every server runs one connection lifecycle, transport.ConnLoop
# (internal/transport/loop.go): accept, one handler per connection, close when
# the handler returns. Fails if a non-test Go file outside bench/, faultnet's
# scripted listener aside, calls Accept or sets a listener deadline (declares
# a listener SetDeadline, or reaches for a concrete TCP/Unix listener).
conn-guard:
	@git grep --untracked -nE '\.Accept\(\)|SetDeadline\((t )?time\.Time\) error|\*net\.(TCP|Unix)Listener' \
		-- '*.go' ':(exclude)*_test.go' ':(exclude)bench/*' ':(exclude)internal/faultnet/*' \
		':(exclude)internal/transport/loop.go'; \
		$(call verdict,an accept loop or listener deadline outside transport.ConnLoop)

# Every byte format goes through one codec, internal/wire: byte order, bounds
# checks and the section framing are decided there. Fails if a non-test Go
# file outside bench/ and internal/wire imports encoding/binary.
wire-guard:
	@git grep --untracked -n '"encoding/binary"' -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/*' \
		':(exclude)internal/wire/*'; \
		$(call verdict,encoding/binary imported outside internal/wire)

# A test named in README.md, DESIGN.md, EXPERIMENTS.md or docs/, or in a
# comment of the CI workflow or of this Makefile, must exist: fails on a Test*,
# Fuzz* or Benchmark* name (backticked in the documents, bare in the comments;
# package-qualified or not, a trailing * or … a prefix) that no _test.go file
# of the module or of bench/ defines, and names the file and line
# (scripts/cite_guard.sh).
cite-guard:
	@bash scripts/cite_guard.sh

# Short native-fuzzing smoke over every fuzz target (decoders must never
# panic on arbitrary bytes; kernels and the fused verifier must match their
# references, every index kind refuse what the linear scan refuses and give the
# oracle's neighbourhoods otherwise, the packed R*-tree keep every id in one
# leaf inside its box, list near leaves as a test of every pair of leaf boxes
# does and give a scan's neighbourhoods; incremental DBSCAN must match batch DBSCAN, and
# its ε-cells a linear scan, after every operation; the representative selector's coverage grid, which every
# relabel and classification goes through, must label like a scan over every
# representative; DBSCAN's leaf schedule must produce the pair-by-pair
# reference's Result, and FromCores it from the reference's core flags and a
# relabelled labelling). CI runs this on push; use a larger FUZZTIME locally
# before touching the wire formats, internal/index/rstar, internal/dbscan,
# internal/incdbscan or dbdc.RepSelector.
# FuzzIncOps and FuzzRunAgreesWithReference cap minimisation:
# shrinking a coverage-only find replays whole op sequences (or thirteen
# clusterings) and would otherwise eat the budget.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/transport/ -run '^$$' -fuzz 'FuzzReadFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzBudgetSections -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzAggSections -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzWireDecoders -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model/ -run '^$$' -fuzz FuzzLocalModelUnmarshal -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model/ -run '^$$' -fuzz FuzzGlobalModelUnmarshal -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model/ -run '^$$' -fuzz FuzzLocalDeltaUnmarshal -fuzztime $(FUZZTIME)
	$(GO) test ./internal/geom/ -run '^$$' -fuzz 'FuzzStoreDistanceSq$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/geom/ -run '^$$' -fuzz FuzzDistanceSqBatch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/geom/ -run '^$$' -fuzz FuzzVerifyRangeSq -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index/ -run '^$$' -fuzz FuzzBuildRejectsOrAgrees -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index/rstar/ -run '^$$' -fuzz FuzzLeaves -fuzztime $(FUZZTIME)
	$(GO) test ./internal/incdbscan/ -run '^$$' -fuzz FuzzIncOps -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/dbdc/ -run '^$$' -fuzz FuzzRepSelector -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dbscan/ -run '^$$' -fuzz FuzzBudgetScor -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dbscan/ -run '^$$' -fuzz FuzzRunAgreesWithReference -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

# Full benchmark sweep: one benchmark per paper figure/table plus the
# ablations. Expect several minutes (Figure 8 runs a 203,000-point study).
bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration smoke over the hot-path suite, the STR bulk build at three
# sizes and in 8-d, the incremental layer's window-turn benchmark (ns, allocs
# and range queries per delete-oldest + insert, in 2-d and 8-d) and step 4 on
# a round-bulk site and on an 8-d one: catches
# benchmarks that no longer compile or crash, without paying measurement time.
# CI runs this.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkLocalClustering|BenchmarkStoreKernels|BenchmarkLoadgenClassify|BenchmarkAblationRStarBuild/bulk' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkRelabelSite|BenchmarkRepSelector' -benchtime 1x -benchmem ./internal/dbdc/
	$(GO) test -run '^$$' -bench 'BenchmarkWindowTurn' -benchtime 1x -benchmem ./internal/incdbscan/

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

# Serving smoke: the in-process twin of a dbdc-loadgen run — boots a
# classification front end, drives closed-loop load against it for both
# request shapes and checks the result and its summary line are coherent
# (see docs/serving.md). CI runs this plus the serve package under -race.
loadgen-smoke:
	$(GO) test -race -run 'TestLoadgenSmoke' -count=1 -v ./internal/serve/

# Aggregation-tree smoke: boots a loopback two-level tree out of the real
# binaries (4 dbdc-site -> 2 dbdc-agg -> dbdc-server), checks every
# process exits clean, every site labels all its points against the root
# model, both leaves' provenance sections reach the root's -report-json and
# the forward phase reaches the leaf's. See docs/hierarchy.md. CI runs this
# plus internal/aggtree under -race.
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
