# Tier-1 verification: everything CI (and the ROADMAP) requires.
# `make check` is the gate a change must pass before merging.

GO ?= go

.PHONY: check build vet lint analyze-smoke test race bench bench-smoke jit-smoke chaos-smoke scale-smoke archive-smoke autopilot-smoke dbms-smoke figures fuzz-smoke cover

check: build lint analyze-smoke race bench-smoke jit-smoke chaos-smoke scale-smoke archive-smoke autopilot-smoke dbms-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint = go vet plus tsvet, the repo's typed static-analysis suite
# (internal/analysis): determinism rules (wall-clock, map-order,
# seeded-source), the guarded-by annotation checker, and the
# verify-before-run rules (constructed-loaded-program,
# discarded-verify-error, discarded-run-error). Zero unsuppressed findings
# required; suppressions are //tsvet:ignore <rule> <reason>.
lint: vet
	$(GO) run ./internal/analysis/tsvet .

# analyze-smoke runs tsvet's own golden-fixture tests: each analyzer
# against its testdata/src/<rule>/ corpus, the suppression-layer fixture,
# and the repo-wide cleanliness gate.
analyze-smoke:
	$(GO) test ./internal/analysis -count=1

test:
	$(GO) test ./...

# The race detector slows the virtual-time experiment suite ~10x past
# go test's default 10m deadline, so give the run an explicit budget.
race:
	$(GO) test -race -timeout 45m ./...

# Short fuzzing pass over every fuzz target (go test allows one -fuzz
# pattern per package invocation, so targets run one at a time). Raise
# FUZZTIME for real sessions; crashers land in testdata/fuzz/ for replay.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test ./internal/bpf -run '^$$' -fuzz '^FuzzVerify$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bpf -run '^$$' -fuzz '^FuzzVerifyThenRun$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bpf -run '^$$' -fuzz '^FuzzOptimize$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bpf -run '^$$' -fuzz '^FuzzPerCPURing$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tscout -run '^$$' -fuzz '^FuzzProcessorDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tscout -run '^$$' -fuzz '^FuzzFaultSchedule$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kernel -run '^$$' -fuzz '^FuzzPerCPUFaultOrder$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/archive -run '^$$' -fuzz '^FuzzSegmentCodec$$' -fuzztime $(FUZZTIME)

# Coverage with a per-package summary (baseline recorded in README.md).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@echo "---- per package ----"
	@$(GO) test -cover ./... 2>/dev/null | awk '/coverage:/ {print $$2, $$5}'

# Substrate micro-benchmarks (single-shot; drop -benchtime for real runs).
bench:
	$(GO) test -bench . -benchtime 1x -run xxx .

# Single-shot run of the per-CPU drain benchmark plus the end-to-end
# multi-core scaling benchmark: cheap CI guards that the batched drain path
# assembles at 1/2/4 drain threads and that the pooled epoch driver runs at
# 1/8/32/64 CPUs (real throughput numbers need default -benchtime).
bench-smoke:
	$(GO) test -bench '^BenchmarkDrainPerCPUvsSingle$$' -benchtime 1x -run xxx .
	$(GO) test -bench '^BenchmarkEndToEndNumCPUs$$' -benchtime 1x -run xxx .

# JIT smoke: compile every subsystem×resource-mask×marker Collector
# program (192), assert the compiler declines none of them, and
# differentially spot-check compiled vs interpreted execution (r0, cost,
# helper traces, map end-states). The single-shot benchmark run keeps the
# interp-vs-compiled speed harness itself from rotting.
jit-smoke:
	$(GO) test ./internal/tscout -run '^TestJITSmoke' -count=1
	$(GO) test -bench '^BenchmarkCollectorInterpVsCompiled$$' -benchtime 1x -run xxx .

# Seed-corpus chaos runs: the full pipeline under deterministic fault
# schedules (kills, migrations, wraparound, overflow bursts, drop/dup
# delivery) at drain parallelism 1/2/4, asserting the exact accounting
# identities. The fault-free baseline proves the harness injects no loss.
chaos-smoke:
	$(GO) test ./internal/tscout -run '^TestChaos' -count=1

# Scale smoke: a thousand terminals multiplexed onto 96 pooled sessions on
# an 8-CPU kernel behind the admission gate, plus the (NumCPUs x drain
# parallelism) determinism grid for the epoch/barrier engine.
scale-smoke:
	$(GO) test ./internal/workload -run '^(TestScaleSmoke|TestEpochEngineDeterminism|TestPooledBoundedQueueRejects)$$' -count=1

# Archive smoke: the columnar training archive's acceptance surface —
# bit-exact segment round-trip, CSV-export equivalence, SQL-over-mount
# cross-check, chaos identities with the segment sink at drain parallelism
# 1/2/4, the segment-sink golden fingerprint, the 2x density floor, every
# point of a large drain reaching the sink, the delivery identity under
# healthy and failing sinks, and the archive-vs-TrainingPoint model-path
# equivalence.
archive-smoke:
	$(GO) test ./internal/archive -run '^(TestRoundTripBitExact|TestExportCSVMatchesDirectSink|TestSQLOverArchive|TestChaosIdentitiesWithSegmentSink|TestColumnarDensityVsCSV)$$' -count=1
	$(GO) test ./internal/workload -run '^TestSegmentSinkGoldenFingerprint$$' -count=1
	$(GO) test ./internal/tscout -run '^(TestLargeDrainDeliversEveryPoint|TestDeliveryIdentity)$$' -count=1
	$(GO) test ./internal/model -run '^TestFromArchiveMatchesFromTrainingPoints$$' -count=1
	$(GO) test ./cmd/tsctl -run '^TestArchiveCmd' -count=1

# Autopilot smoke: the self-driving loop's acceptance surface — the
# online-retraining controller converging/bursting/holding deterministic,
# the online learners (ridge ≡ batch, windowed forest, prequential set),
# chaos identities holding while the controller retunes rates live, the
# error-vs-overhead frontier shape (autopilot Pareto-dominates fixed
# rates), and the golden fingerprint staying bit-exact with the two-stream
# sampler.
autopilot-smoke:
	$(GO) test ./internal/autopilot -count=1
	$(GO) test ./internal/model -run '^(TestOnlineRidge|TestWindowedForest|TestErrorSurface|TestOnlineSet)' -count=1
	$(GO) test ./internal/experiment -run '^TestFrontierShape$$' -count=1
	$(GO) test ./internal/tscout -run '^(TestLiveRetuneBitEquality|TestRetuneIsolationAcrossSubsystems|TestStickySinkFailsFast)$$' -count=1
	$(GO) test ./internal/workload -run '^TestSingleCPUGoldenFingerprint$$' -count=1

# DBMS smoke: the statement path's contract — every cached statement still
# equals a fresh parse after all five workloads ran on one server, the
# cache stops at its cap, concurrent parses, a parse error is answered with
# an error response, the per-statement allocation gate — plus ParseScript's
# split on tokens, and both golden fingerprints, which prove the cache and
# the shared column bindings moved no virtual nanosecond.
dbms-smoke:
	$(GO) test ./internal/dbms -run '^(TestStatementCacheASTImmutable|TestStatementCacheBounded|TestStatementCacheConcurrentParse|TestStatementParseErrorResponds|TestStatementAllocsHalved)$$' -count=1
	$(GO) test ./internal/sql -run '^TestParseScript$$' -count=1
	$(GO) test ./internal/workload -run '^(TestSingleCPUGoldenFingerprint|TestSegmentSinkGoldenFingerprint)$$' -count=1

# Regenerate every figure at quick scale.
figures:
	$(GO) run ./cmd/tsbench all
