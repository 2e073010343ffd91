GO ?= go

.PHONY: all build test test-short lint lint-canary verify-static race fmt-check vet verify fuzz-smoke bench bench-smoke bench-scale clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# lint runs the lbvet analyzer suite (internal/analysis): nodeterminism,
# floateq, specroundtrip, goroutineleak, shardsafety, hotalloc,
# checkpointsync and telemetryread — the static half of the determinism and
# conservation contract (see README "Determinism contract"). Exceptions
# need a justified //lint:allow.
lint:
	$(GO) run ./cmd/lbvet ./...

# lint-canary proves the suite still catches the defect classes it exists
# for: it plants a cross-shard write and a hot-path allocation in a scratch
# copy of the module and requires lint to flag both (see
# TestSeededDefectCanary).
lint-canary:
	$(GO) test -run '^TestSeededDefectCanary$$' ./internal/analysis

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# verify-static is the no-execution half of verify: formatting, go vet and
# the lbvet analyzer suite.
verify-static: fmt-check vet lint

# race runs every package under the race detector with the runtime
# invariant checks compiled in (-tags=invariants): the sweep engine fans
# out goroutines across scenario cells, the engines run shard.Run workers
# inside a step, and the invariants assert conservation and
# column-stochasticity after every round while they race.
race:
	$(GO) test -race -short -tags=invariants ./...

# verify is the CI entry point: the static suite, a full build (including
# the examples/ packages, which have no tests of their own), the short test
# suite and the race+invariants pass.
verify: verify-static build test-short race
	@echo verify OK

# fuzz-smoke runs every fuzz target briefly (override FUZZTIME, e.g.
# FUZZTIME=60s) — the executable proof behind the specroundtrip analyzer's
# requirement that every FromSpec parser has a fuzz round-trip test, plus
# the differential checks of the CSR builder (FuzzFromEdges) and of the
# power iteration (FuzzSecondEigenvalue).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFromSpec$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzFromEdges$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzSecondEigenvalue$$' -fuzztime $(FUZZTIME) ./internal/spectral
	$(GO) test -run '^$$' -fuzz '^FuzzSpeedsFromSpec$$' -fuzztime $(FUZZTIME) ./internal/hetero
	$(GO) test -run '^$$' -fuzz '^FuzzPolicyFromSpec$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzFromSpec$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzFromSpec$$' -fuzztime $(FUZZTIME) ./internal/envdyn
	$(GO) test -run '^$$' -fuzz '^FuzzFromSpec$$' -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzFromSpec$$' -fuzztime $(FUZZTIME) ./internal/actor
	$(GO) test -run '^$$' -fuzz '^FuzzPCGPair3Split$$' -fuzztime $(FUZZTIME) ./internal/randx

# bench produces real timings; override BENCHTIME (e.g. BENCHTIME=2s) or
# narrow with standard go test flags for serious measurement runs.
BENCHTIME ?= 1s
bench:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) ./...

# bench-smoke runs every benchmark exactly once — including the
# dynamic-workload and engine benchmarks — so the perf paths at least
# compile and execute on every CI run without the timing cost of `bench`.
# The scale benchmarks run shrunk to 16384 nodes (they default to 2^20).
bench-smoke:
	DIFFUSIONLB_SCALE_N=16384 $(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/...

# bench-scale measures the step path at paper scale (override BENCH_N,
# e.g. BENCH_N=4194304) and writes BENCH_10.json: node-updates/sec,
# bytes/node and allocs/round for FOS and SOS on a 2-d torus and a
# random-regular graph — on the shared-memory engine, the barrier actor
# runtime and the stale=2 actor runtime, each cell the median of 3 repeats
# with telemetry-off/on twin rows. See README "Memory layout & scale".
BENCH_N ?= 1048576
BENCH_OUT ?= BENCH_10.json
bench-scale:
	$(GO) run ./cmd/lbbench -n $(BENCH_N) -compare-telemetry -out $(BENCH_OUT)

clean:
	$(GO) clean ./...
