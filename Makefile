# Verification entry points. `make verify` is the full pre-merge gate
# (formatting, vet, build, tests under the race detector); `make test`
# is the quick tier-1 check.

GO ?= go
# One pass per benchmark keeps `make bench` to ~half a minute; raise to
# e.g. BENCHTIME=1s for statistically steadier baselines.
BENCHTIME ?= 1x

.PHONY: verify test race fmt vet build cross staticcheck equiv chaos fuzz bench bench-diff cover loc

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
# vs single writes, the slot meter vs the map meter, the busy-until
# mirror vs the pointer scan, a pooled job vs a traced one — three
# times under the race detector. CI runs this target.
equiv:
	$(GO) test -race -count=3 -run 'TestWriteSectionsMatchSingleWrites' ./internal/obs/
	$(GO) test -race -count=3 -run 'TestMeterMatchesReference' ./internal/cloud/billing/
	$(GO) test -race -count=3 -run 'TestBusyMirrorMatchesPointerScan|TestConcurrentInvokesFirstSightPhases' ./internal/cloud/lambda/
	$(GO) test -race -count=3 -run 'TestPooledJobMatchesTracedJob' ./internal/coordinator/

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
# asmdecl pass checks the amd64 frame layout in the `vet` target.)
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/...

# Run every benchmark and write the machine-readable baseline used to
# spot performance regressions (cmd/benchjson normalizes the output).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=$(BENCHTIME) ./... | $(GO) run ./cmd/benchjson > BENCH_baseline.json
	@echo "wrote BENCH_baseline.json"

# Re-run every benchmark and print the per-benchmark ns/op and B/op
# delta against the committed baseline. Informational: wall-clock noise
# varies by machine, so this never fails the build.
bench-diff:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=$(BENCHTIME) ./... | $(GO) run ./cmd/benchjson -diff BENCH_baseline.json

# Same diff, but exit non-zero if any benchmark's req/s throughput
# falls more than BENCH_GATE_PCT percent below the committed baseline,
# or its allocs/op grows more than BENCH_ALLOC_GATE_PCT percent above
# it. The throughput gate is loose on purpose: single-iteration
# wall-clock on shared CI runners is noisy, so only order-of-magnitude
# regressions (a hot path quietly de-optimized) should trip it. The
# alloc gate can be much tighter because alloc counts are
# deterministic, not wall-clock noise.
BENCH_GATE_PCT ?= 75
BENCH_ALLOC_GATE_PCT ?= 25
bench-gate:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=$(BENCHTIME) ./... | $(GO) run ./cmd/benchjson -diff BENCH_baseline.json -fail-below-pct $(BENCH_GATE_PCT) -fail-allocs-above-pct $(BENCH_ALLOC_GATE_PCT)

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

# Short fuzz pass over the two wire-format decoders and the hedge-delay
# latency ring (against its copy-and-sort reference).
fuzz:
	$(GO) test ./internal/modelfmt/ -fuzz FuzzDecodeTensor -fuzztime 15s
	$(GO) test ./internal/modelfmt/ -fuzz FuzzDecodeWeights -fuzztime 15s
	$(GO) test ./internal/coordinator/ -fuzz FuzzLatencyRing -fuzztime 10s
