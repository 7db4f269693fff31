# Standard entry points. `make ci` is what .github/workflows/ci.yml runs before
# its end-to-end smokes. Performance is measured by the repository benchmark
# (`bash bench/run.sh`, bounds in BENCHMARK.json), not by a target here.

GO ?= go

.PHONY: all vet build test race fuzz-smoke bench-vet profile-sim profile-select profile-probe profile-cold profile-warm loc flags ci

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
# queue, fault injection), internal/cluster (the chunked assignment step
# and its worker-invariance test), internal/artifact (the store's lock and
# views), internal/remote (the shard client's eviction and rebalance, the
# cache peer and a study through a three-member fleet), internal/dedup and internal/classify (the ensemble fits its members
# concurrently) are fast enough to race in full (the last four ≈ 1.3, 1.2, 5.4
# and 7.2 s of test time under -race on the 2-core box); the
# experiments and workload suites run with -short so the concurrency
# regression tests (singleflight, 64-goroutine stress, fuzz seed corpus)
# execute under the detector without paying for the full artifact pipeline
# at ~10x race overhead (experiments without -short costs ≈ 560 s under
# -race on the 2-core box; its -short run still includes the study cost pin,
# TestStudySimulatesLikeEvaluate); core, pks and sampling race only their
# workload-document tests (a loaded document's evaluation at scheduler width > 1), the
# selection-artifact tests, the rider, baseline-plan and pack tests (at scheduler width > 1 an
# evaluation's pack banks and hands out riders' outcomes, and serves its memo, from several
# goroutines; `Bank` selects TestBankRidersMatchSoloTasks),
# the scan's (its launches are handed to the scheduler's tasks, and its memo
# is read and filled from every study of a shared workload), the evaluator's
# walk count over every plan (WalksOnce) and two studies of one catalogue
# workload at once (ShareOneWorkload) — sampling run whole
# takes ≈ 100 s under -race and core whole ≈ 61 s, over the 60 s a whole
# package may cost here, so both stay pattern-selected. pks also races its
# two-level tests (the holdout probe fits beside the tail's ensemble and the
# light pass; ≈ 11 s), with -short so the 45 s gnmt_training walk stays out.
# `make test` covers the heavy paths (including the parallel-vs-serial
# determinism golden) natively.
race:
	$(GO) test -race ./internal/parallel/... ./internal/obs/... ./internal/serve/... ./internal/cluster/... \
	    ./internal/artifact/... ./internal/remote/... ./internal/dedup/... ./internal/classify/...
	$(GO) test -race -short ./internal/experiments/... ./internal/workload/...
	$(GO) test -race -short -run 'TwoLevel|MaxDetailed|Tail' ./internal/pks/...
	$(GO) test -race -run 'Document|SelectWarm|Misfit|Riders|Bank|Baseline|Pack|Scan|WalksOnce|ShareOneWorkload' ./internal/core/... ./internal/pks/... ./internal/sampling/...

# Five seconds of coverage-guided fuzzing per decoder of untrusted or
# persisted bytes (eight targets). The seed corpora already run in `make test`; this is the
# smoke that the targets still build and survive fresh inputs.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzDecodeSelection -fuzztime $(FUZZTIME) ./internal/pks
	$(GO) test -run NONE -fuzz FuzzDecodeOutcome -fuzztime $(FUZZTIME) ./internal/sampling
	$(GO) test -run NONE -fuzz FuzzDecodePack -fuzztime $(FUZZTIME) ./internal/sampling
	$(GO) test -run NONE -fuzz FuzzDecodeEntry -fuzztime $(FUZZTIME) ./internal/artifact
	$(GO) test -run NONE -fuzz FuzzLoadWorkloadJSON -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run NONE -fuzz FuzzServeRequest -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run NONE -fuzz FuzzParseTraceparent -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run NONE -fuzz FuzzCacheRequest -fuzztime $(FUZZTIME) ./internal/remote

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

# Where a selection-memory PR starts: the heap of select_cold's probe, one
# selection over MLPerf/ssd_training. alloc_space is everything the selection
# allocates; inuse_space is what is live as its K sweep starts (the detailed
# pool and the selection), from the heap profile the bench takes there.
profile-probe:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run NONE -bench 'SelectProbe' -benchtime=1x \
	    -o $(PROFILE_DIR)/pka.test -memprofile $(PROFILE_DIR)/probe.mem.prof .
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=10 $(PROFILE_DIR)/pka.test $(PROFILE_DIR)/probe.mem.prof
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=10 $(PROFILE_DIR)/pka.test $(PROFILE_DIR)/probe.live.prof

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
# the one frame only it has: the cycle loop.
profile-warm:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run NONE -bench 'WarmSet' -benchtime=300x \
	    -o $(PROFILE_DIR)/pka.test -cpuprofile $(PROFILE_DIR)/warm.cpu.prof .
	$(GO) tool pprof -top -nodecount=10 -ignore 'sim\.\(\*Simulator\)\.RunProbes' \
	    $(PROFILE_DIR)/pka.test $(PROFILE_DIR)/warm.cpu.prof

# Non-test lines under cmd/, internal/ and the root package — the unit
# simplification PRs state their acceptance in — then the _test.go lines of
# the same trees.
loc:
	@find cmd internal *.go -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@find cmd internal *.go -name '*_test.go' | xargs cat | wc -l

# Each binary's flag count as its -h lists it — the unit ROADMAP.md's flag
# census is kept in.
BINARIES = pka pkaexp pkaserve pkad
flags:
	@for b in $(BINARIES); do \
	    printf '%s %s\n' $$b "$$($(GO) run ./cmd/$$b -h 2>&1 | grep -c '^  -')"; \
	done

ci: vet build test race fuzz-smoke bench-vet
