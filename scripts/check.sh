#!/bin/sh
# Tier-1 gate: build, vet, and the full test suite under the race detector.
# Mirrors `make check` for environments without make.
set -eu
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# tsvet: the repo's typed static-analysis suite (determinism, guarded-by,
# verify-before-run discipline). Zero unsuppressed findings required.
go run ./internal/analysis/tsvet .
go test -race -timeout 45m ./...

# Single-shot smoke of the per-CPU drain benchmark and the end-to-end
# multi-core scaling benchmark: the batched drain path must assemble at
# every thread/topology combination, and the pooled epoch driver must run
# at 1/8/32/64 CPUs.
go test -bench '^BenchmarkDrainPerCPUvsSingle$' -benchtime 1x -run xxx .
go test -bench '^BenchmarkEndToEndNumCPUs$' -benchtime 1x -run xxx .

# JIT smoke: every generated Collector program must compile (zero
# declines) and agree with the interpreter on differential spot-checks;
# the single-shot benchmark keeps the speed harness assembling.
go test ./internal/tscout -run '^TestJITSmoke' -count=1
go test -bench '^BenchmarkCollectorInterpVsCompiled$' -benchtime 1x -run xxx .

# Seed-corpus chaos runs: the pipeline under deterministic fault schedules
# must satisfy the exact accounting identities at every drain parallelism.
go test ./internal/tscout -run '^TestChaos' -count=1

# Scale smoke: 1000 terminals on 96 pooled sessions behind the admission
# gate, plus the (NumCPUs x drain parallelism) determinism grid.
go test ./internal/workload -run '^(TestScaleSmoke|TestEpochEngineDeterminism|TestPooledBoundedQueueRejects)$' -count=1

# Archive smoke: the columnar training archive's acceptance surface —
# bit-exact round-trip, CSV-export equivalence, SQL-over-mount cross-check,
# chaos identities with the segment sink, the golden fingerprint through
# segments, the 2x density floor, every point of a large drain reaching
# the sink, the delivery identity under healthy and failing sinks, and the
# model-path equivalence.
go test ./internal/archive -run '^(TestRoundTripBitExact|TestExportCSVMatchesDirectSink|TestSQLOverArchive|TestChaosIdentitiesWithSegmentSink|TestColumnarDensityVsCSV)$' -count=1
go test ./internal/workload -run '^TestSegmentSinkGoldenFingerprint$' -count=1
go test ./internal/tscout -run '^(TestLargeDrainDeliversEveryPoint|TestDeliveryIdentity)$' -count=1
go test ./internal/model -run '^TestFromArchiveMatchesFromTrainingPoints$' -count=1
go test ./cmd/tsctl -run '^TestArchiveCmd' -count=1

# Autopilot smoke: the self-driving loop's acceptance surface — the
# online-retraining controller converging/bursting/holding deterministic,
# the online learners, chaos identities under live retuning, the
# error-vs-overhead frontier shape, and the golden fingerprint with the
# two-stream sampler.
go test ./internal/autopilot -count=1
go test ./internal/model -run '^(TestOnlineRidge|TestWindowedForest|TestErrorSurface|TestOnlineSet)' -count=1
go test ./internal/experiment -run '^TestFrontierShape$' -count=1
go test ./internal/tscout -run '^(TestLiveRetuneBitEquality|TestRetuneIsolationAcrossSubsystems|TestStickySinkFailsFast)$' -count=1
go test ./internal/workload -run '^TestSingleCPUGoldenFingerprint$' -count=1

# DBMS smoke: the statement path's contract — every cached statement still
# equals a fresh parse after all five workloads ran on one server, the
# cache stops at its cap, concurrent parses, a parse error is answered with
# an error response, the per-statement allocation gate — plus ParseScript's
# split on tokens, and both golden fingerprints, which prove the cache and
# the shared column bindings moved no virtual nanosecond.
go test ./internal/dbms -run '^(TestStatementCacheASTImmutable|TestStatementCacheBounded|TestStatementCacheConcurrentParse|TestStatementParseErrorResponds|TestStatementAllocsHalved)$' -count=1
go test ./internal/sql -run '^TestParseScript$' -count=1
go test ./internal/workload -run '^(TestSingleCPUGoldenFingerprint|TestSegmentSinkGoldenFingerprint)$' -count=1

# FUZZ=1 adds a short fuzzing pass over every fuzz target (one -fuzz
# pattern per package invocation is a go test restriction).
if [ "${FUZZ:-0}" = "1" ]; then
	fuzztime="${FUZZTIME:-10s}"
	go test ./internal/bpf -run '^$' -fuzz '^FuzzVerify$' -fuzztime "$fuzztime"
	go test ./internal/bpf -run '^$' -fuzz '^FuzzVerifyThenRun$' -fuzztime "$fuzztime"
	go test ./internal/bpf -run '^$' -fuzz '^FuzzOptimize$' -fuzztime "$fuzztime"
	go test ./internal/bpf -run '^$' -fuzz '^FuzzPerCPURing$' -fuzztime "$fuzztime"
	go test ./internal/tscout -run '^$' -fuzz '^FuzzProcessorDecode$' -fuzztime "$fuzztime"
	go test ./internal/tscout -run '^$' -fuzz '^FuzzFaultSchedule$' -fuzztime "$fuzztime"
	go test ./internal/kernel -run '^$' -fuzz '^FuzzPerCPUFaultOrder$' -fuzztime "$fuzztime"
	go test ./internal/archive -run '^$' -fuzz '^FuzzSegmentCodec$' -fuzztime "$fuzztime"
fi
