# Standard verify recipe; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: all build vet lint lint-json test perfbench-test race bench-smoke obs-bench mem-smoke profile metrics-check serve-smoke fuzz-smoke verify

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every rule in one pass over one program load, plus the ranked hot-path
# allocation worklist that TestStepWorklistMatchesSuppressions checks.
# Suppression is inline only: //mctlint:ignore <rule> <reason>.
lint:
	$(GO) run ./cmd/mctlint -allochot-json results/allochot.json ./...

# Machine-readable findings, as archived by CI. Exit code is preserved.
lint-json:
	$(GO) run ./cmd/mctlint -json ./...

test:
	$(GO) test ./...

# The benchmark is its own Go module, so the root `go test ./...` never
# reaches its tests (the slowed-layer check and the BENCHMARK.json ↔
# layers.go check).
perfbench-test:
	cd perfbench && $(GO) test ./...

# The concurrency gate: data races are caught here, dynamically, not by a
# lint rule. CI's race-full job runs the same thing uncached.
race:
	$(GO) test -race ./...

# Quick end-to-end check that the mctbench binary still runs an experiment
# and that the warm/cold evaluation micro-benchmarks still compile and run:
# the parallel-determinism tests exercise the engine, this exercises the CLI
# and the bench harness. The batched-step-loop benchmark is the streaming
# pipeline's allocation gate: its companion test asserts exactly 0
# allocs/op at steady state. The ML lines do the same for the MCT decision
# step: a gboost fit allocates per fit, not per tree or node, and
# predicting the space allocates nothing.
bench-smoke:
	$(GO) run ./cmd/mctbench -experiment space -quick -quiet
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluate(WarmClone|ColdRebuild)' -benchtime 5x .
	$(GO) test -run '^$$' -bench 'Benchmark(Tiered)?BatchedStepLoop' -benchtime 200000x ./internal/sim
	$(GO) test -run 'Test(Tiered)?BatchedStepLoopZeroAllocs' -count 1 ./internal/sim
	$(GO) test -run '^$$' -bench 'Benchmark(GBoostFit|PredictSpace|TradeoffPredictAll)$$' -benchtime 5x .
	$(GO) test -run 'TestGBoost(PredictRowsZeroAllocs|FitAllocsIndependentOfTrees)' -count 1 ./internal/ml
	$(GO) test -run 'TestPredictAllIntoZeroAllocs' -count 1 ./internal/core

# Memory-boundedness smoke: stream a 50M-access evaluation under a fixed
# GOMEMLIMIT and fail unless cumulative allocation stays far below what
# materializing the trace (~1.2 GB) would need.
mem-smoke:
	GOMEMLIMIT=192MiB $(GO) run ./cmd/mctbench -mem-smoke 50000000 -mem-smoke-alloc-max 67108864

# Capture CPU+heap pprof profiles of the quick sweeps into results/.
profile:
	$(GO) run ./cmd/mctbench -profile -quick -quiet

# Observability overhead gate: the identical MCT run with and without a
# metrics registry attached (best of 3 per arm) must stay within the
# tolerated slowdown. Writes results/BENCH_obs.json, exits 1 above the gate.
obs-bench:
	$(GO) run ./cmd/mctbench -obs-bench

# Determinism check on the metrics dump itself: the same run at -workers 1
# and -workers 4 must produce byte-identical stable dumps — once on the
# stock llc>nvm pipeline and once with the DRAM tier interposed (the
# dram.* metric family must be just as worker-count invariant). The
# multi-core fig10 report gets the same workers-1-vs-4 cmp.
metrics-check:
	$(GO) run ./cmd/mct -benchmark lbm -insts 6000000 -workers 1 -metrics-out results/metrics-w1.json >/dev/null
	$(GO) run ./cmd/mct -benchmark lbm -insts 6000000 -workers 4 -metrics-out results/metrics-w4.json >/dev/null
	cmp results/metrics-w1.json results/metrics-w4.json
	$(GO) run ./cmd/mct -benchmark lbm -insts 6000000 -dram -workers 1 -metrics-out results/metrics-dram-w1.json >/dev/null
	$(GO) run ./cmd/mct -benchmark lbm -insts 6000000 -dram -workers 4 -metrics-out results/metrics-dram-w4.json >/dev/null
	cmp results/metrics-dram-w1.json results/metrics-dram-w4.json
	$(GO) run ./cmd/mctbench -experiment fig10 -quick -quiet -workers 1 > results/fig10-w1.txt
	$(GO) run ./cmd/mctbench -experiment fig10 -quick -quiet -workers 4 > results/fig10-w4.txt
	cmp results/fig10-w1.txt results/fig10-w4.txt

# End-to-end daemon smoke: boot mctd, prove CLI/daemon artifact parity over
# HTTP, then kill -9 mid-job and prove the restarted daemon resumes from the
# checkpoint with a byte-identical artifact.
serve-smoke:
	./scripts/serve_smoke.sh

# Short fuzz of checkpoint loading: every garbled checkpoint file must
# either fail to load or restore a machine that steps without panicking.
# `go test` runs the seed corpus (fresh NVM-only and DRAM-tier checkpoints).
# Then a short differential fuzz of gradient boosting against the reference
# implementation in internal/ml/reference_test.go: predictions must match
# bit for bit. Last, the job-spec decoder: every accepted spec must round
# trip and keep its instruction budget within 2^53.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime 30s -fuzzminimizetime 1x ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzGBoostMatchesReference$$' -fuzztime 10s -fuzzminimizetime 1x ./internal/ml
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeJobSpec$$' -fuzztime 10s -fuzzminimizetime 1x ./api

verify: build vet lint test perfbench-test race bench-smoke mem-smoke serve-smoke fuzz-smoke
