GO ?= go

.PHONY: all build vet fmt-check docs-check test race verify bench bench-smoke bench-json bench-mvm bench-serve bench-fault bench-obs bench-fleet bench-hybrid bench-chaos bench-capacity cover fuzz experiments examples clean

all: build vet test

# Tier-1 verify path: format + docs cross-reference check + build + vet +
# tests, then the same tests again under the race detector (the parallel
# simulation engine must stay race-clean).
verify: fmt-check docs-check build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any tracked Go file is not gofmt-clean; prints the offenders.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Docs cross-reference check: every docs/*.md referenced from README.md or
# DESIGN.md must exist, and every file in docs/ must be referenced from one
# of them — no dangling links, no orphaned documents. Implemented as a Go
# test (docs_test.go) so `go test ./...` enforces it too.
docs-check:
	$(GO) test -run TestDocs -count=1 .

test:
	$(GO) test ./...

# Race-detector pass over the whole tree; parallelism is on by default
# (pool width = GOMAXPROCS), so this exercises the concurrent hot paths.
# The second invocation pins the noisy parallel-equivalence suites — the
# tests that prove counter-based noise is bit-identical at any pool width —
# so a -run filter or cached result can never silently skip them. The
# third pins the serving-pipeline and memo single-flight concurrency
# suites (micro-batcher, backpressure, shadow swaps at pool widths 1/4/16,
# deduplicated concurrent memo Calls, lock-free histogram observes). The
# fourth pins the device-fault subsystem: injection determinism,
# program-and-verify + spare remapping, engine health scans and repairs,
# and the serving-layer circuit breaker (docs/FAULTS.md). The fifth pins
# the observability layer (docs/OBSERVABILITY.md): concurrent span
# recording, traced-vs-untraced bit-identity at pool widths 1/4/16,
# context-canceled request shedding, and the cimserve telemetry
# endpoint lifecycle. The sixth pins the serving fleet (docs/CLUSTER.md):
# router edge cases, join/leave under in-flight traffic, rolling
# reprogram with zero downtime, and the keyed-noise determinism suites
# that make fleet outputs bit-identical at any engine count. The seventh
# pins the GEMM batching path (docs/PERF.md): batch-vs-looped bit-identity
# across functional, bit-serial, noisy keyed/unkeyed, and fault-remapped
# kernels, mixed-shape scratch-pool reuse, and concurrent batched MVMs.
# The eighth pins the hybrid dispatch layer (docs/HYBRID.md): Von Neumann
# twin bit-identity at pool widths 1/4/16, calibrator decision-sequence
# determinism, route invariance through the dispatcher and the serving
# pipeline, and reprogram suspension of the twin. The ninth pins the
# resilience layer (docs/RESILIENCE.md): hedged-request bit-identity and
# budget accounting, the AIMD limiter and brownout state machines, chaos
# crash-window failover, and fleet membership churn (Leave/Join) racing
# a rolling reprogram while hedged requests are in flight. The tenth pins
# the workload-generation layer (docs/CAPACITY.md): arrival-schedule
# bit-identity at pool widths 1/4/16, the chaos Poisson deprecation path,
# trace record/replay, the open-loop drive (never-retry, no-self-throttle,
# lateness accounting), the capacity sweep, and its benchjson gate.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 \
		-run 'Noisy|ParallelEquivalence|OrderIndependence' \
		./internal/crossbar/ ./internal/dpe/ ./internal/experiments/
	$(GO) test -race -count=1 \
		-run 'Serve|Shadow|Backpressure|SingleFlight|HistogramConcurrent' \
		./internal/serve/ ./internal/memo/ ./internal/metrics/
	$(GO) test -race -count=1 \
		-run 'Fault|Health|Repair|Breaker' \
		./internal/faultinject/ ./internal/crossbar/ ./internal/dpe/ \
		./internal/serve/ ./internal/experiments/
	$(GO) test -race -count=1 \
		-run 'Trace|Concurrent|Canceled|Telemetry|Prom|Quantile' \
		./internal/obs/ ./internal/crossbar/ ./internal/dpe/ \
		./internal/serve/ ./internal/metrics/ ./internal/experiments/ \
		./cmd/cimserve/
	$(GO) test -race -count=1 \
		-run 'Fleet|Router|Rolling|RoundRobin|Weighted|WearAware|JoinLeave|Keyed' \
		./internal/fleet/ ./internal/serve/ ./internal/dpe/ \
		./internal/experiments/ ./cmd/cimserve/
	$(GO) test -race -count=1 \
		-run 'MVMBatch|InferBatch|ScratchReuse' \
		./internal/crossbar/ ./internal/dpe/
	$(GO) test -race -count=1 \
		-run 'Hybrid|Dispatch|Calibrator|Twin' \
		./internal/hybrid/ ./internal/vonneumann/ ./internal/experiments/
	$(GO) test -race -count=1 \
		-run 'Hedge|Hedger|AIMD|Brownout|Limiter|Chaos|Straggler|Crash|Spikes|Arrivals|Wrap|Scenario|Reprogram|LeaveJoinRacing|Deadline|Resilience' \
		./internal/fleet/ ./internal/chaos/ ./internal/serve/ ./cmd/cimserve/
	$(GO) test -race -count=1 \
		-run 'Arrivals|Poisson|MMPP|Diurnal|Trace|Mix|Drive|OpenLoop|Capacity' \
		./internal/workloadgen/ ./internal/chaos/ ./internal/experiments/ \
		./cmd/cimserve/ ./cmd/benchjson/

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable record of the MVM kernel benchmarks: the single-vector
# BenchmarkCrossbarMVM sweep plus the batched BenchmarkCrossbarMVMBatch
# GEMM sweep (batch 1/8/32/128 x 64..512, with each result's interleaved
# looped-baseline speedup metric), converted to BENCH_mvm.json. Also runs
# the serving-pipeline benchmark so BENCH_serve.json stays in step, and
# the hybrid dispatch, chaos, and capacity sweeps so BENCH_hybrid.json,
# BENCH_chaos.json, and BENCH_capacity.json do too.
bench-json: bench-serve bench-mvm bench-hybrid bench-chaos bench-capacity

# The MVM sweeps alone, with the GEMM regression gate: fails unless every
# deterministic batch >= 8 result on an ISAAC-scale panel (>= 256) beats
# the looped per-vector baseline by at least 1.5x (the speedup metric is
# measured interleaved inside one benchmark, so host clock drift between
# runs cannot fake or mask a regression; noisy mode and cache-resident
# sub-256 panels are exempt — see docs/PERF.md).
bench-mvm:
	$(GO) test -run '^$$' -bench '^BenchmarkCrossbarMVM(Batch)?$$' \
		-benchtime 5x -benchmem . \
		| $(GO) run ./cmd/benchjson -gate-batch-speedup 1.5 -out BENCH_mvm.json
	@echo wrote BENCH_mvm.json

# Serving-pipeline benchmark: 64 closed-loop clients over the 8-bit MLP
# workload, serial per-request baseline vs the micro-batched pipeline
# (with two shadow-engine weight swaps mid-run), emitted through
# cmd/benchjson as BENCH_serve.json (throughput, p50/p95/p99, energy).
bench-serve:
	$(GO) run ./cmd/cimserve -clients 64 -requests 2048 -batch 64 -reprogram 2 \
		| $(GO) run ./cmd/benchjson -out BENCH_serve.json
	@echo wrote BENCH_serve.json

# Device-fault sweep artifact: the (stuck rate x spare budget) grid from
# internal/experiments, emitted as benchmark lines and archived through
# cmd/benchjson as BENCH_fault.json (accuracy, remap/lost counts, retry
# pulses, programming energy in each result's extra map).
bench-fault:
	$(GO) run ./cmd/cimbench -exp fault -format bench \
		| $(GO) run ./cmd/benchjson -out BENCH_fault.json
	@echo wrote BENCH_fault.json

# Tracer-overhead artifact (docs/OBSERVABILITY.md budget: disabled <5%
# over untraced, 0 allocs): wall-clock ns/op for the MVM hot path and
# the serve request path — untraced vs disabled-tracer vs enabled —
# archived through cmd/benchjson as BENCH_obs.json.
bench-obs:
	$(GO) run ./cmd/cimbench -exp obs -format bench \
		| $(GO) run ./cmd/benchjson -out BENCH_obs.json
	@echo wrote BENCH_obs.json

# Serving-fleet artifact (docs/CLUSTER.md): every routing policy at
# engine counts 1/2/4/8 under closed-loop load with a rolling reprogram
# mid-run. Simulated throughput, speedup vs 1 engine, wall p50/p99, and
# the zero-downtime evidence (failed must be 0, rolled_engines = engines)
# land in BENCH_fleet.json via cmd/benchjson.
bench-fleet:
	$(GO) run ./cmd/cimbench -exp fleet -format bench \
		| $(GO) run ./cmd/benchjson -out BENCH_fleet.json
	@echo wrote BENCH_fleet.json

# Hybrid dispatch artifact (docs/HYBRID.md): the CIM-vs-CPU crossover
# grid (layer size x batch, per-item simulated latency on the crossbar vs
# the executing Von Neumann twin) plus the mixed-workload comparison of
# forced-cim / forced-vn / auto dispatch. The -gate-hybrid check fails
# unless the sweep measures a real crossover (cells on both sides of
# speedup 1) and auto throughput at least matches the best single
# backend. Everything is simulated cost, so the gate is deterministic.
bench-hybrid:
	$(GO) run ./cmd/cimbench -exp hybrid -format bench \
		| $(GO) run ./cmd/benchjson -gate-hybrid -out BENCH_hybrid.json
	@echo wrote BENCH_hybrid.json

# Chaos-harness artifact (docs/RESILIENCE.md): the scenario x hedging grid
# (fault-free baseline, straggler, crash-during-rolling-reprogram, open-
# loop overload burst) scored against the fault-free single-engine keyed
# oracle. The -gate-chaos check fails on any lost keyed request, any
# non-bit-identical output, or overload p99 beyond 10x the fault-free
# baseline — the SLOs the resilience layer exists to keep. The headline
# straggler rows should show hedging recovering most of the p99
# regression (hedge_wins > 0, hedged p99 well under the unhedged row).
bench-chaos:
	$(GO) run ./cmd/cimbench -exp chaos -format bench \
		| $(GO) run ./cmd/benchjson -gate-chaos -out BENCH_chaos.json
	@echo wrote BENCH_chaos.json

# SLO capacity-planning artifact (docs/CAPACITY.md): the engines x
# offered-rate grid driven open loop (deterministic Poisson schedule,
# mixed batch-1/batch-8/analytics request classes), each cell scored
# against the 25ms p99 SLO with zero sheds and zero lost requests, plus
# the rated capacity per engine count (top of the passing prefix) and the
# closed-vs-open comparison rows that demonstrate coordinated omission.
# The -gate-capacity check fails unless every pass bit is backed by its
# own cell's numbers, the passing cells form a monotone prefix of the
# rate ladder, and every engine count rates at some rung.
bench-capacity:
	$(GO) run ./cmd/cimbench -exp capacity -format bench \
		| $(GO) run ./cmd/benchjson -gate-capacity -out BENCH_capacity.json
	@echo wrote BENCH_capacity.json

# Quick benchmark smoke: one iteration of the Section VI latency sweep,
# enough to catch a broken hot path without a full benchmark run, plus the
# stack-build write path (BenchmarkEngineLoad: dpe.Load + the Von Neumann
# twin on the reference MLP) with its B/op and allocs/op, so setup
# regressions show without a serving benchmark.
bench-smoke:
	$(GO) test -bench '^Benchmark(SecVILatency|EngineLoad)$$' -benchtime=1x -benchmem .

cover:
	$(GO) test -cover ./...

# Short fuzzing pass over the wire-format parsers, the checksum layer,
# and the histogram quantile estimator (the hedge delay and every latency
# SLO read through it: quantiles must stay monotone in q, inside
# [Min, Max], and self-consistent on arbitrary observation sets).
fuzz:
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=15s ./internal/packet/
	$(GO) test -fuzz=FuzzDecode -fuzztime=15s ./internal/isa/
	$(GO) test -fuzz=FuzzAssemble -fuzztime=15s ./internal/isa/
	$(GO) test -fuzz=FuzzSealOpen -fuzztime=15s ./internal/fault/
	$(GO) test -fuzz=FuzzFlipBit -fuzztime=15s ./internal/fault/
	$(GO) test -fuzz=FuzzHistogramQuantile -fuzztime=15s ./internal/metrics/

# Regenerate every paper table and figure.
experiments:
	$(GO) run ./cmd/cimbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/edge
	$(GO) run ./examples/graphanalytics
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/selfprogramming
	$(GO) run ./examples/training
	$(GO) run ./examples/analytics

clean:
	$(GO) clean -testcache
