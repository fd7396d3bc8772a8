# Development entry points. `make check` is the CI gate: it builds
# everything, vets, and runs the full test suite under the race detector —
# the shared-budget parallel miner must stay race-clean.

GO ?= go

# Coverage floors for `make cover` (percent of statements; CI fails below).
# Measured at the time the floor was set: core 97.7%, service 85.7%.
COVER_FLOOR_CORE ?= 95.0
COVER_FLOOR_SERVICE ?= 82.0

.PHONY: build test vet race service-race check lint cover bench bench-baseline bench-compare bench-smoke bench-kernels profile serve-smoke crash-smoke dist-smoke overload-smoke incr-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The crash-recovery machinery (journal, checkpoints, drain, fault hooks)
# must stay race-clean on its own; full `race` covers it too, but this
# target is the fast gate while iterating on the service.
service-race:
	$(GO) test -race ./internal/service/... ./internal/faultinject/...

check: build vet race

# Static analysis gate. gofmt and vet always run; staticcheck, govulncheck
# and shellcheck run when installed (CI installs them; a bare dev container
# may not have them, and the gate must still be runnable there).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed; skipping"; fi
	@if command -v shellcheck >/dev/null 2>&1; then shellcheck scripts/*.sh; \
		else echo "lint: shellcheck not installed; skipping"; fi

# Coverage floors over the two packages with the most behavior: the mining
# engine and the service layer. Fails when either drops below its floor.
cover:
	$(GO) test -coverprofile=cover_core.out ./internal/core
	$(GO) test -coverprofile=cover_service.out ./internal/service
	@$(GO) tool cover -func=cover_core.out | awk -v floor=$(COVER_FLOOR_CORE) \
		'/^total:/ { sub(/%/,"",$$3); if ($$3+0 < floor) { printf "internal/core coverage %s%% below floor %s%%\n",$$3,floor; exit 1 } \
		printf "internal/core coverage %s%% (floor %s%%)\n",$$3,floor }'
	@$(GO) tool cover -func=cover_service.out | awk -v floor=$(COVER_FLOOR_SERVICE) \
		'/^total:/ { sub(/%/,"",$$3); if ($$3+0 < floor) { printf "internal/service coverage %s%% below floor %s%%\n",$$3,floor; exit 1 } \
		printf "internal/service coverage %s%% (floor %s%%)\n",$$3,floor }'

bench:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# Record a fresh benchmark baseline: make bench-baseline N=2 writes
# BENCH_2.json (ns/op, B/op, allocs/op for the E1-E8 benchmark set).
# BEST_OF=3 repeats every benchmark and keeps the fastest sample (min-of-N).
N ?= 1
BEST_OF ?= 1
bench-baseline:
	GO=$(GO) BEST_OF=$(BEST_OF) ./scripts/bench_baseline.sh BENCH_$(N).json

# Re-run the benchmark set and diff against the newest committed baseline
# with benchstat-style thresholds (fail on >15% ns/op or >5% allocs/op
# regression on any benchmark). BEST_OF=3 reduces noise the same way it does
# for bench-baseline.
bench-compare:
	GO=$(GO) BEST_OF=$(BEST_OF) ./scripts/bench_baseline.sh /tmp/bench_current.json
	$(GO) run ./cmd/benchdiff \
		-old "$$(ls BENCH_*.json | sort -V | tail -1)" \
		-new /tmp/bench_current.json \
		-max-ns-regress 15 -max-allocs-regress 5

# Fast CI gate: one iteration of the running example and the RWave index
# build proves the bench harness still compiles and runs.
bench-smoke:
	$(GO) test -run XXX -bench 'BenchmarkRunningExample$$|BenchmarkRWaveBuild$$' -benchtime 1x -benchmem .

# Kernel microbenchmarks (internal/core kernel_bench_test.go): the isolated
# inner-loop primitives of the columnar hot path — frontier lookups,
# candidate scan, Equation 7 scoring, bitset walk. -benchtime 100x keeps it
# cheap enough for the CI smoke pass while still exercising the loops.
bench-kernels:
	$(GO) test -run XXX -bench 'BenchmarkKernel' -benchtime 100x -benchmem ./internal/core

# CPU-profile the mining hot path: one iteration of a Figure 7 panel under
# -cpuprofile, then the top cumulative functions. Override PROFILE_BENCH to
# profile a different benchmark (e.g. PROFILE_BENCH='BenchmarkFig7Conds/c=30$$').
PROFILE_BENCH ?= BenchmarkFig7Genes/g=3000$$
profile:
	$(GO) test -run XXX -bench '$(PROFILE_BENCH)' -benchtime 1x \
		-cpuprofile cpu.prof -o profile.test .
	$(GO) tool pprof -top -cum -nodecount=10 profile.test cpu.prof

# Boot regserver on a random port and run one mining job end to end over
# HTTP with curl, asserting a cache hit on the second submission.
serve-smoke: build
	GO=$(GO) ./scripts/serve_smoke.sh

# SIGKILL regserver mid-job, restart it on the same -data-dir, and assert
# the job resumes from its checkpoint to a byte-identical result.
crash-smoke: build
	GO=$(GO) ./scripts/crash_smoke.sh

# Mine one job across a coordinator and two worker processes, SIGKILL a
# worker mid-lease, and assert re-leasing plus a result byte-identical to a
# single-node run.
dist-smoke: build
	GO=$(GO) ./scripts/dist_smoke.sh

# Burst 50 submissions from two API-key tenants at a 2-slot server: the
# bounded tenant gets honest 429s with Retry-After, the light tenant's work
# completes, no 5xx, and a restart replays identical usage ledgers.
overload-smoke: build
	GO=$(GO) ./scripts/overload_smoke.sh

# Mine a dataset, append a one-condition delta, and re-mine: the second run
# must take the incremental path (repaired models, dirty subtrees only) and
# match a cold mine of the grown matrix byte for byte, also when a durable
# server restarts between the parent and the child mine.
incr-smoke: build
	GO=$(GO) ./scripts/incr_smoke.sh
