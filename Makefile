# Verification entry points. `make verify` is the full pre-merge gate
# (formatting, vet, build, tests under the race detector, hot-path
# equivalence); `make test` is the quick tier-1 check; `make bench`,
# `bench-compare` and `bench-record` drive the repo benchmark in bench/.

GO ?= go

.PHONY: verify test race fmt vet build cross staticcheck equiv chaos fuzz bench bench-compare bench-record cover loc

verify: fmt vet staticcheck build cross race equiv

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Skips with a notice when the binary is
# not on PATH (offline sandboxes); CI installs it and always runs it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Hot-path equivalence: each fast path against the reference it
# replaced or the path it shares code with — telemetry write sections
# vs single writes, the window log's NDJSON encoder vs json.Marshal of
# the frames it materialises (rendered unlocked while a writer
# flushes), the slot meter vs the map meter, the busy-until
# mirror vs the pointer scan, a pooled job vs a traced one — three
# times under the race detector. For the planner's certified envelope
# prefixes: their independence of query order and worker count the same
# way, and — serial code, so without the detector, under which the
# largest cases skip themselves — the prefixes against the exact scan
# (every span of mobilenet at 1 MB stride included) and what their
# certificate rests on. For the cold path's shared memory: a forward pass
# that overwrites its own activations against the evaluator that
# overwrites nothing, weight tensors that are views of their container
# (the race build turns on checkptr, which checks the unsafe.Slice cast's
# alignment and bounds), containers — float32 and quantized — encoded,
# quantized, checksummed and dequantized by several workers against one,
# and concurrent jobs over those views. For the tensor kernels' split by
# work: the split contract, the conv kernels against their scalar
# reference on single-image shapes that split, and whole zoo models —
# partitioned and at 1, 2 and 3 workers — against one worker, bit for
# bit. The kernel reference tests run with the assembly and again without
# it, on inputs and kernels carrying -0, NaN, ±Inf and denormals; beside
# them, the branch-free conv term-list walk (convList) and ReLU/ReLU6
# against their Go definitions at every width and offset, both paths.
# CI runs this target.
equiv:
	$(GO) test -race -count=3 -run 'TestWriteSectionsMatchSingleWrites|TestWindowNDJSONMatchesMarshal' ./internal/obs/
	$(GO) test -race -count=3 -run 'TestMeterMatchesReference' ./internal/cloud/billing/
	$(GO) test -race -count=3 -run 'TestBusyMirrorMatchesPointerScan|TestConcurrentInvokesFirstSightPhases' ./internal/cloud/lambda/
	$(GO) test -race -count=3 -run 'TestPooledJobMatchesTracedJob|TestConcurrentBatchesOnlyReadSharedWeights' ./internal/coordinator/
	$(GO) test -race -count=3 -run 'TestForwardRangeMatchesOutOfPlaceEvaluator' ./internal/nn/
	$(GO) test -race -count=3 -run 'TestParallelForSplitContract|TestConv2DMatchesReference|TestDepthwiseConv2DMatchesReference|TestMatMulMatchesReference|TestConvListMatchesGo|TestReLUMatchesDefinition|TestParallelismInvariance|TestSelfAttentionParallelismInvariance' ./internal/tensor/
	$(GO) test -race -count=3 -run 'TestPartitionedForwardBitIdentical' ./internal/nn/zoo/
	$(GO) test -race -count=3 -run 'TestDecodeWeightsAliasesAlignedContainer|TestDecodeWeightsCopiesMisalignedContainer|TestParallelChunksMatchInline' ./internal/modelfmt/
	$(GO) test -race -count=3 -run 'TestQueryOrderIndependence|TestSpanTableIdenticalAcrossGOMAXPROCS' ./internal/optimizer/
	$(GO) test -run 'TestEnvelopeMatchesExactScan|TestCertificateFloorsHold|FuzzSelectBlockCertified' ./internal/optimizer/

# Chaos smoke: the resilience and pipelining×batching ladders at a 60%
# base fault rate with 8× correlated storms, plus two 100k-request
# streaming storms through the discrete-event core — whole-job, and
# pipelined+batched with full telemetry (handle-path writes, lean
# report recycling) — under the race detector, so the
# hedge/breaker/deadline/shed paths, the staged executor's batch
# coalescing and the event-heap/slab pool reuse are exercised together
# on every push.
chaos:
	$(GO) test -race -run 'TestChaosStormSmoke|TestChaosPipelineBatch|TestChaosSim|TestChaosDomainStorm' ./internal/experiments/

build:
	$(GO) build ./...

# The tensor kernels pick assembly by GOARCH + CPUID, so the pure-Go
# fallback is never compiled on an amd64 box unless asked for. (vet's
# asmdecl pass checks the amd64 frame layout in the `vet` target.) The
# codecs pick copy or per-element conversion by the host's byte order;
# s390x is the big-endian build that keeps the latter compiling.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/...
	GOARCH=s390x $(GO) build ./...

# The repo benchmark (bench/, its own module; BENCHMARK.json names its
# workloads, metrics and bounds). `make bench` runs all four workloads,
# an untraced and a traced pass each, into bench/out/result.json (~2.5
# min at 20 s a pass); `make bench-compare A=base.json B=new.json` sets two
# such files side by side, row by row; `make bench-record` appends the
# last run as one line to BENCH_history.ndjson — one line per PR, never
# rewritten, so the measurements are a trajectory.
#
# CI runs none of these. `-compare` fails on any host metric that reads
# worse than the base beyond its bound, and against a result stored from
# another machine that is the machine speaking: only the sim_* metrics,
# good_share and the sim digests are machine-independent. A speed claim
# needs alternating parent/change pairs on one box (bench/README.md,
# "Comparing two commits"); what CI gates on is counted, not timed — the
# allocation-budget tests in internal/serving.
bench:
	bash bench/run.sh

bench-compare:
	bash bench/run.sh -compare $(abspath $(A)) $(abspath $(B))

bench-record:
	@test -s bench/out/result.json || { echo "no bench/out/result.json: run 'make bench' first" >&2; exit 1; }
	{ tr -d '\n' < bench/out/result.json; echo; } >> BENCH_history.ndjson
	@echo "appended bench/out/result.json to BENCH_history.ndjson"

# Per-package coverage report. Fails if any internal package ships with
# no test files at all — every subsystem must carry its own tests.
cover:
	@untested=$$($(GO) list -f '{{if and (eq (len .TestGoFiles) 0) (eq (len .XTestGoFiles) 0)}}{{.ImportPath}}{{end}}' ./internal/...); \
	if [ -n "$$untested" ]; then \
		echo "packages with no test files:" >&2; echo "$$untested" >&2; exit 1; \
	fi
	$(GO) test -cover ./...

# Non-test Go lines per package and in total — the number ROADMAP aim 2
# asks to go down. (bench/ is its own module and is counted too.)
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Short fuzz pass over the two wire-format decoders — FuzzDecodeWeights
# reads both weights container kinds, float32 and quantized packages —
# the hedge-delay latency ring (against its copy-and-sort reference),
# the planner's certified block selection (against a full kernel scan),
# the window log's NDJSON encoder (against json.Marshal) and the MIQP
# branch-and-bound (against brute force, on up to 12 variables).
fuzz:
	$(GO) test ./internal/modelfmt/ -fuzz FuzzDecodeTensor -fuzztime 15s
	$(GO) test ./internal/modelfmt/ -fuzz FuzzDecodeWeights -fuzztime 15s
	$(GO) test ./internal/coordinator/ -fuzz FuzzLatencyRing -fuzztime 10s
	$(GO) test ./internal/optimizer/ -run '^$$' -fuzz FuzzSelectBlockCertified -fuzztime 15s
	$(GO) test ./internal/obs/ -run '^$$' -fuzz FuzzWindowNDJSON -fuzztime 15s
	$(GO) test ./internal/miqp/ -run '^$$' -fuzz FuzzSolve -fuzztime 15s
