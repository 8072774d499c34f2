GO ?= go

.PHONY: all build test race vet lint fmt bench bench-json bench-gate bench-e2e-test load-smoke load-smoke-durable sweep-smoke fuzz-smoke profile profile-sweep report clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# ./... covers every package of the module, examples/ and cmd/ included.
vet:
	$(GO) vet ./...

# lint fails on unformatted files (gofmt prints their names) and vets the
# whole module. CI runs this.
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -l -w .

# Quick engine benchmarks (one iteration each); the full figure benches
# live in bench_test.go. BenchmarkRunCluster (one cluster run on 2 and on
# 8 nodes) and BenchmarkSweep (cold vs warm memo cache) run without
# -benchmem: their allocation counts wobble by a few dozen from run to run
# (the sweep's with its parallel workers' scheduling), which would trip the
# gate's absolute allocs/op rule. The store/daemon concurrency benches compare the
# striped hot path against the shards-1 (single-mutex) baseline,
# BackendPutGetFlush is one page's put/get/flush life in the store, the
# remote-tier bench shows overflow absorbed by a peer store instead of
# failing to the disk-swap path (its -batch variants report transport
# round-trips/op), and the sim kernel benches pin the zero-allocation
# scheduling hot path. BenchmarkLogPutBatch and BenchmarkCompact ride the WAL
# line for their B/op: a journaled 16-page batch allocates no page copy (the
# journal indexes pages, it does not keep them), and one whole compaction of
# a 128 MiB journal (~60 ms) allocates O(slab). All benches run with -benchmem
# so allocation regressions are visible in the output and in BENCH.json.
bench:
	$(GO) test -bench 'BenchmarkEngine' -benchtime 1x -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkSweep' -benchtime 1x -run '^$$' .
	$(GO) test -bench 'BenchmarkRunCluster' -benchtime 1x -run '^$$' .
	$(GO) test -bench 'BenchmarkKernel|BenchmarkProcSleep|BenchmarkCondPingPong' -benchtime 100000x -benchmem -run '^$$' ./internal/sim
	$(GO) test -bench 'BenchmarkBackendParallel' -benchtime 10000x -benchmem -run '^$$' ./internal/tmem
	$(GO) test -bench 'BenchmarkBackendPutGetFlush' -benchtime 100000x -benchmem -run '^$$' ./internal/tmem
	$(GO) test -bench 'BenchmarkRemoteTier' -benchtime 10000x -benchmem -run '^$$' ./internal/tmem
	$(GO) test -bench 'BenchmarkCompressedTier' -benchtime 10000x -benchmem -run '^$$' ./internal/tmem
	$(GO) test -bench 'BenchmarkKVServer' -benchtime 1000x -benchmem -run '^$$' ./internal/kvstore
	$(GO) test -bench 'BenchmarkWALAppend|BenchmarkLogPutBatch|BenchmarkCompact' -benchtime 1000x -benchmem -run '^$$' ./internal/durable
	$(GO) test -bench 'BenchmarkHDR' -benchtime 100000x -benchmem -run '^$$' ./internal/hdr
	$(GO) run ./cmd/smartmem-loadgen -inprocess -rate 2000 -duration 2s -conns 2 -quiet -bench

# Machine-readable benchmark snapshot: runs the same suite as `make bench`
# and writes BENCH.json (the perf trajectory record; CI uploads it next to
# the raw bench-out artifact). The loadgen line folds open-loop p50/p99/p999
# into the same document as the closed-loop benchmarks.
# No pipe into tee here: a failing bench must fail the target instead of
# being masked by the pipe's exit status (POSIX sh has no pipefail).
bench-json:
	@tmp=$$(mktemp); \
	{ $(GO) test -bench 'BenchmarkEngine' -benchtime 1x -benchmem -run '^$$' . && \
	  $(GO) test -bench 'BenchmarkSweep' -benchtime 1x -run '^$$' . && \
	  $(GO) test -bench 'BenchmarkRunCluster' -benchtime 1x -run '^$$' . && \
	  $(GO) test -bench 'BenchmarkKernel|BenchmarkProcSleep|BenchmarkCondPingPong' -benchtime 100000x -benchmem -run '^$$' ./internal/sim && \
	  $(GO) test -bench 'BenchmarkBackendParallel' -benchtime 10000x -benchmem -run '^$$' ./internal/tmem && \
	  $(GO) test -bench 'BenchmarkBackendPutGetFlush' -benchtime 100000x -benchmem -run '^$$' ./internal/tmem && \
	  $(GO) test -bench 'BenchmarkRemoteTier' -benchtime 10000x -benchmem -run '^$$' ./internal/tmem && \
	  $(GO) test -bench 'BenchmarkCompressedTier' -benchtime 10000x -benchmem -run '^$$' ./internal/tmem && \
	  $(GO) test -bench 'BenchmarkKVServer' -benchtime 1000x -benchmem -run '^$$' ./internal/kvstore && \
	  $(GO) test -bench 'BenchmarkWALAppend|BenchmarkLogPutBatch|BenchmarkCompact' -benchtime 1000x -benchmem -run '^$$' ./internal/durable && \
	  $(GO) test -bench 'BenchmarkHDR' -benchtime 100000x -benchmem -run '^$$' ./internal/hdr && \
	  $(GO) run ./cmd/smartmem-loadgen -inprocess -rate 2000 -duration 2s -conns 2 -quiet -bench; } > "$$tmp" || { cat "$$tmp"; rm -f "$$tmp"; exit 1; }; \
	cat "$$tmp"; \
	$(GO) run ./cmd/smartmem-benchjson < "$$tmp" > BENCH.json && rm -f "$$tmp" && \
	echo "wrote BENCH.json"

# Perf gate: rebuild the benchmark snapshot into bench-out/ and hold it
# against the committed BENCH.json under the per-benchmark budgets. CI runs
# this (failing the build on a busted budget) before refreshing the
# committed baseline. Run `make bench-json` first if bench-out/BENCH.json
# is missing or stale.
bench-gate:
	@test -f bench-out/BENCH.json || { echo "bench-out/BENCH.json missing: run the bench suite into bench-out first (CI does) or 'make bench-json' and copy it"; exit 1; }
	$(GO) run ./cmd/smartmem-benchgate -current bench-out/BENCH.json -baseline BENCH.json -budgets bench-budgets.txt

# The end-to-end benchmark is a module of its own (benchmark/go.mod), so
# `go test ./...` neither builds nor tests it. Run this after changing any
# package it imports: its unit tests plus an untraced smoke of all four
# workloads, a few seconds. CI runs it.
bench-e2e-test:
	cd benchmark && $(GO) test -short .

# Loadgen SLO smoke: a short open-loop run against an in-process server,
# gated on zero transport errors, a minimum sustained rate and a p99
# ceiling. The ceiling is deliberately generous (~25x the quiet-machine
# p99) so it only trips on real serialization bugs, not runner jitter.
load-smoke:
	@mkdir -p bench-out
	$(GO) run ./cmd/smartmem-loadgen -inprocess -rate 2000 -duration 5s -conns 2 -keys 8192 -json bench-out/load-smoke.json
	$(GO) run ./cmd/smartmem-benchgate -load bench-out/load-smoke.json -min-rate 1800 -max-p99 50ms

# Same SLO gate with the kvd's durable journal write-through under the
# store (segmented WAL in a throwaway directory, interval fsync): every
# put/flush commits to the log before acking, so this catches commit-path
# latency regressions the memory-only smoke can't see. The p99 ceiling is
# doubled: fsync stalls ride the runner's filesystem.
load-smoke-durable:
	@mkdir -p bench-out
	@rm -rf bench-out/durable-smoke && mkdir -p bench-out/durable-smoke
	$(GO) run ./cmd/smartmem-loadgen -inprocess -durable bench-out/durable-smoke -fsync interval \
		-rate 2000 -duration 5s -conns 2 -keys 8192 -json bench-out/load-smoke-durable.json
	$(GO) run ./cmd/smartmem-benchgate -load bench-out/load-smoke-durable.json -min-rate 1800 -max-p99 100ms
	@rm -rf bench-out/durable-smoke

# Tournament warm-cache smoke: run one small tournament twice against the
# same memo directory under the race detector. The second pass must be
# served entirely from the cache and emit a byte-identical league document
# (cmp fails the target otherwise) — the end-to-end proof that memoization
# changes wall-clock only, never results.
sweep-smoke:
	@mkdir -p bench-out && rm -rf bench-out/sweep-memo
	$(GO) run -race ./cmd/smartmem-sim -tournament -scenario scale-2,leaky \
		-policies greedy,smart-alloc:P=2 -seeds 11,23 -memo bench-out/sweep-memo \
		-league-json bench-out/sweep-cold.json -quiet
	$(GO) run -race ./cmd/smartmem-sim -tournament -scenario scale-2,leaky \
		-policies greedy,smart-alloc:P=2 -seeds 11,23 -memo bench-out/sweep-memo \
		-league-json bench-out/sweep-warm.json -quiet
	cmp bench-out/sweep-cold.json bench-out/sweep-warm.json
	@rm -rf bench-out/sweep-memo
	@echo "sweep-smoke: warm league byte-identical to cold"

# Fuzz smoke: five seconds of coverage-guided mutation on each decoder of
# untrusted bytes (WAL segments, snapshot slabs and manifests, compressed
# pages, memo records, series blobs and packs, kvstore request frames as the
# server reads them, TKM frames and their payloads), and on the sim kernel's
# run-ahead equivalence harness (random process programs must run the same
# under a plain Step loop and under every loop that runs ahead). `go test -fuzz` takes
# one target and one package per run. The minimizer is capped by
# executions: left at its default it spends a minute shrinking each
# coverage-expanding input, which is the whole smoke.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 5s -fuzzminimizetime 500x ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime 5s -fuzzminimizetime 500x ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 5s -fuzzminimizetime 500x ./internal/tmem
	$(GO) test -run '^$$' -fuzz '^FuzzMemoDecode$$' -fuzztime 5s -fuzzminimizetime 500x ./internal/experiments
	$(GO) test -run '^$$' -fuzz '^FuzzMemoPack$$' -fuzztime 5s -fuzzminimizetime 500x ./internal/experiments
	$(GO) test -run '^$$' -fuzz '^FuzzServeConn$$' -fuzztime 5s -fuzzminimizetime 500x ./internal/kvstore
	$(GO) test -run '^$$' -fuzz '^FuzzTKMFrame$$' -fuzztime 5s -fuzzminimizetime 500x ./internal/tkm
	$(GO) test -run '^$$' -fuzz '^FuzzKernelRunAhead$$' -fuzztime 5s -fuzzminimizetime 500x ./internal/sim

# Profile a tier-stack-heavy run (kv-heavy hammers the striped store; swap
# -scenario cluster-2 to profile the cluster runtime). Inspect with:
#   go tool pprof cpu.prof
#   go tool pprof mem.prof
profile:
	$(GO) run ./cmd/smartmem-sim -scenario kv-heavy -policy smart-alloc:P=2 -seed 11 \
		-cpuprofile cpu.prof -memprofile mem.prof -quiet > /dev/null
	@echo "wrote cpu.prof and mem.prof"

# Profile one cold sweep-paper tournament on one worker: the four Table II
# scenarios under every policy spec, no memo, so every cell simulates. This
# is where the sim kernel's scheduling cost shows. Inspect with:
#   go tool pprof cpu-sweep.prof
profile-sweep:
	$(GO) run ./cmd/smartmem-sim -tournament -scenario s1,s2,usemem,s3 -seeds 273490 -parallel 1 -quiet \
		-cpuprofile cpu-sweep.prof > /dev/null
	@echo "wrote cpu-sweep.prof"

# Regenerate every paper figure and table with all CPUs.
report:
	$(GO) run ./cmd/smartmem-report

clean:
	$(GO) clean ./...
