# Standard entry points; CI (.github/workflows/ci.yml) runs vet+build+test+race.

GO ?= go

.PHONY: all vet build test race fuzz-smoke bench bench-all bench-check bench-vet profile-sim profile-select profile-cold profile-warm loc ci

all: build

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the concurrency layer; CI runs this target. internal/parallel,
# internal/obs (lock-free instruments, concurrent tracer/audit),
# internal/serve (the serving tier: concurrent admission, weighted-fair
# queue, fault injection) and internal/cluster (the chunked assignment step
# and its worker-invariance test) are fast enough to race in full; the
# experiments and workload suites run with -short so the concurrency
# regression tests (singleflight, 64-goroutine stress, fuzz seed corpus)
# execute under the detector without paying for the full artifact pipeline
# at ~10x race overhead; core, pks and sampling race only their streaming
# tests (the speculator's goroutines), the selection-artifact tests
# (core.Select under Evaluate's stage pool) and the rider and bank tests (at
# scheduler width > 1 a bank is filled and drained from several goroutines).
# `make test` covers the heavy paths (including the parallel-vs-serial
# determinism golden) natively.
race:
	$(GO) test -race ./internal/parallel/... ./internal/obs/... ./internal/serve/... ./internal/cluster/...
	$(GO) test -race -short ./internal/experiments/... ./internal/workload/...
	$(GO) test -race -run 'Stream|Speculat|SelectWarm|Misfit|Riders|Bank' ./internal/core/... ./internal/pks/... ./internal/sampling/...

# Five seconds of coverage-guided fuzzing per decoder of untrusted or
# persisted bytes. The seed corpora already run in `make test`; this is the
# smoke that the targets still build and survive fresh inputs.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzDecodeSelection -fuzztime $(FUZZTIME) ./internal/pks
	$(GO) test -run NONE -fuzz FuzzDecodeOutcome -fuzztime $(FUZZTIME) ./internal/sampling
	$(GO) test -run NONE -fuzz FuzzLoadWorkloadJSON -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run NONE -fuzz FuzzStreamEvents -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run NONE -fuzz FuzzServeRequest -fuzztime $(FUZZTIME) ./internal/serve

# Snapshot the perf trajectory: substrate microbenchmarks at full benchtime
# (BenchmarkSimTick's allocs/op==0 only means something once setup costs
# amortize) plus the study fan-out speedup at one iteration, rendered into
# a diffable JSON artifact. bench-all is the old full artifact sweep.
# SimulatorThroughput records two arms: /run (the cycle loop alone, the one
# bench-check gates) and /new+run (with sim.New on the clock).
bench:
	@{ $(GO) test -run NONE -bench 'SimTick' -benchmem ./internal/sim ; \
	   $(GO) test -run NONE -bench 'CacheAccess' -benchmem ./internal/mem ; \
	   $(GO) test -run NONE -bench 'SimulatorThroughput|RollingDetector|KMeansSweep|SiliconModel|WorkloadGeneration' -benchmem . ; \
	   $(GO) test -run NONE -bench 'StudyParallel|StudyKernelSched|StudyCache|StudyPredict|StudyRemote|StudySuiteDedup|StudyStream|Serve' -benchtime=1x . ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_study.json -baseline BENCH_study.json \
	    -note "recorded on the 1-CPU reference box: parallel and remote sub-benches (StudyParallel/p=4, StudyRemote/workers=2) are slower than their serial arms there because fan-out only adds overhead without cores to spread across; their speedup gates apply on >= 4 CPUs"
	@echo wrote BENCH_study.json

bench-all:
	$(GO) test -bench=. -benchtime=1x .

# Regression smoke: re-run the two hot-path benchmarks and fail if either
# is more than 25% slower (ns/op) than the committed BENCH_study.json.
# Short benchtime keeps this cheap enough for CI; the generous tolerance
# absorbs runner noise while still catching real algorithmic regressions.
# The second stage gates relative speed within this run: the study must
# scale (p=4 at least 1.5x faster than p=1, skipped below 4 CPUs), the
# warm artifact cache must be at least 5x faster than cold, and two
# loopback worker processes must beat single-process by 1.5x (also
# skipped below 4 CPUs — worker processes on one core only add RPC
# overhead). The third stage bounds the serving tier's overhead: the
# same request batch through the HTTP server (decode, admission,
# weighted-fair queue, marshaling) may cost at most 3x the serial batch
# path, tracing-enabled serving may cost at most 1.2x tracing-off, and
# the open-loop qps arm records client-observed p50/p99. The fourth stage
# pins the suite-dedup saving itself: per-app PKS must simulate at least
# 1.3x more warp-instructions than the shared cross-workload selection on
# the gauss suite — the headline reduction internal/dedup exists for.
# The fifth stage gates the streaming overlap: at >= 4 CPUs the streaming
# pipeline must finish at least 1.3x faster than the phase-sequential run
# of the same study (skipped below 4 CPUs, where there are no spare cores
# to overlap speculative simulation onto). The sixth stage gates the
# learned tier-0 predictor: a study served from a trained model must run
# at least 1.3x faster than the same study fully simulated — no CPU
# floor, because the win is work elimination rather than parallelism.
bench-check:
	@{ $(GO) test -run NONE -bench 'SimulatorThroughput/^run$$' -benchtime=5x . ; \
	   $(GO) test -run NONE -bench 'KMeansSweep/distinct' -benchtime=5x . ; } \
	| $(GO) run ./cmd/benchjson -baseline BENCH_study.json \
	    -check SimulatorThroughput/run,KMeansSweep/distinct -tolerance 25
	@$(GO) test -run NONE -bench 'StudyParallel/p=|StudyCache/(cold|warm)|StudyRemote/(local|workers)' -benchtime=1x . \
	| $(GO) run ./cmd/benchjson -o /dev/null \
	    -check-ratio 'StudyParallel/p=1:StudyParallel/p=4:1.5:4,StudyCache/cold:StudyCache/warm:5,StudyRemote/local:StudyRemote/workers=2:1.5:4'
	@$(GO) test -run NONE -bench 'Serve/(direct|served|traced|qps)' -benchtime=1x . \
	| $(GO) run ./cmd/benchjson -o /dev/null \
	    -check-max-ratio 'Serve/served:Serve/direct:3,Serve/traced:Serve/served:1.2'
	@$(GO) test -run NONE -bench 'StudySuiteDedup' -benchtime=1x . \
	| $(GO) run ./cmd/benchjson -o /dev/null \
	    -check-metric-ratio 'warp-instrs:StudySuiteDedup/perapp:StudySuiteDedup/dedup:1.3'
	@$(GO) test -run NONE -bench 'StudyStream/(sequential|streaming)' -benchtime=1x . \
	| $(GO) run ./cmd/benchjson -o /dev/null \
	    -check-ratio 'StudyStream/sequential:StudyStream/streaming:1.3:4'
	@$(GO) test -run NONE -bench 'StudyPredict/(nopredict|predict)' -benchtime=1x . \
	| $(GO) run ./cmd/benchjson -o /dev/null \
	    -check-ratio 'StudyPredict/nopredict:StudyPredict/predict:1.3'

# bench/ is its own module (pka/bench, `replace pka => ../`), so the root
# `go build ./... && go test ./...` never compiles it. Vet and test it here
# so a refactor under internal/ cannot break the benchmark's compile
# surface unnoticed.
bench-vet:
	cd bench && $(GO) vet . && $(GO) test .

# Where a simulator PR starts: the CPU profile of the run-only throughput
# bench (one simulator, RunKernel on the clock, nothing else), top ten by
# flat time. DESIGN.md "Performance" keeps the last committed one to compare
# against. Binary and profile stay out of the checkout.
PROFILE_DIR ?= /tmp/pka-profile
profile-sim:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run NONE -bench 'SimulatorThroughput/^run$$' -benchtime=100x \
	    -o $(PROFILE_DIR)/pka.test -cpuprofile $(PROFILE_DIR)/sim.cpu.prof .
	$(GO) tool pprof -top -nodecount=10 $(PROFILE_DIR)/pka.test $(PROFILE_DIR)/sim.cpu.prof

# Where a selection PR starts: the same for the select_cold study set (18
# pks.Select calls per iteration, no simulation).
profile-select:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run NONE -bench 'SelectSet' -benchtime=5x \
	    -o $(PROFILE_DIR)/pka.test -cpuprofile $(PROFILE_DIR)/select.cpu.prof .
	$(GO) tool pprof -top -nodecount=10 $(PROFILE_DIR)/pka.test $(PROFILE_DIR)/select.cpu.prof

# Where a cold-study PR starts: the same for the sim_cold study set (eight
# evaluations, a fresh Exec over a fresh store each) — the simulator, plus
# whatever a study spends around it.
profile-cold:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run NONE -bench 'ColdSet' -benchtime=3x \
	    -o $(PROFILE_DIR)/pka.test -cpuprofile $(PROFILE_DIR)/cold.cpu.prof .
	$(GO) tool pprof -top -nodecount=10 $(PROFILE_DIR)/pka.test $(PROFILE_DIR)/cold.cpu.prof

# Where a warm-path PR starts: the same for the warm_batch study set (eight
# evaluations over a primed store, a fresh Exec each). The profile covers the
# whole process, so the cold pass that primes the store is filtered out by
# the one frame only it has.
profile-warm:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run NONE -bench 'WarmSet' -benchtime=300x \
	    -o $(PROFILE_DIR)/pka.test -cpuprofile $(PROFILE_DIR)/warm.cpu.prof .
	$(GO) tool pprof -top -nodecount=10 -ignore 'sim\.\(\*Simulator\)\.RunKernel' \
	    $(PROFILE_DIR)/pka.test $(PROFILE_DIR)/warm.cpu.prof

# Non-test lines under cmd/, internal/ and pka.go — the unit simplification
# PRs state their acceptance in.
loc:
	@find cmd internal pka.go -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

ci: vet build test race fuzz-smoke bench-check bench-vet
