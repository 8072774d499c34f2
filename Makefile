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

# The bench suite, one group per line: output name, package, -bench
# regexp, -benchtime, and -benchmem where the group's allocations are
# gated. `make bench`, `make bench-json` and CI all run this one list, so a
# run and the committed BENCH.json baseline always use the same iteration
# counts. Each group writes bench-out/<name>.txt, which CI's benchstat step
# pairs with the previous run's file of the same name.
#
# The engine, sweep and cluster-runtime groups are macro runs of one
# iteration, run without -benchmem: their allocation counts wobble by a few
# to a few dozen from run to run (the engine's and the sweep's with their
# workers' scheduling), which would trip the gate's absolute allocs/op rule. The sim kernel, store,
# tier and hdr groups pin zero-allocation hot paths; BackendParallel
# compares the striped store against the shards-1 (single-mutex) baseline,
# and the remote-tier -batch variants report transport round-trips/op.
# BenchmarkLogPutBatch and BenchmarkCompact ride the WAL line for their
# B/op: a journaled 16-page batch allocates no page copy, and one whole
# compaction of a 128 MiB journal allocates O(slab).
define BENCH_SUITE
engine           .                  BenchmarkEngine                                          1x
sweep            .                  BenchmarkSweep                                           1x
cluster-runtime  .                  BenchmarkRunCluster                                      1x
sim-kernel       ./internal/sim     BenchmarkKernel|BenchmarkProcSleep|BenchmarkCondPingPong 100000x -benchmem
tmem-parallel    ./internal/tmem    BenchmarkBackendParallel                                 10000x  -benchmem
tmem-putgetflush ./internal/tmem    BenchmarkBackendPutGetFlush                              100000x -benchmem
tmem-remote-tier ./internal/tmem    BenchmarkRemoteTier                                      10000x  -benchmem
tmem-compressed  ./internal/tmem    BenchmarkCompressedTier                                  10000x  -benchmem
kvserver         ./internal/kvstore BenchmarkKVServer                                        1000x   -benchmem
durable-wal      ./internal/durable BenchmarkWALAppend|BenchmarkLogPutBatch|BenchmarkCompact 1000x   -benchmem
hdr              ./internal/hdr     BenchmarkHDR                                             100000x -benchmem
endef
export BENCH_SUITE

# Run the suite into bench-out/ and convert it into bench-out/BENCH.json.
# The loadgen line folds open-loop p50/p99/p999 over a loopback socket into
# the same document. Each group is written to its file before it is
# printed, so a failing bench fails the target (POSIX sh has no pipefail).
bench:
	@mkdir -p bench-out
	@printf '%s\n' "$$BENCH_SUITE" | while read -r name pkg pat n mem; do \
		echo "$(GO) test -run '^$$' -bench '$$pat' -benchtime $$n $$mem $$pkg"; \
		$(GO) test -run '^$$' -bench "$$pat" -benchtime "$$n" $$mem "$$pkg" > "bench-out/$$name.txt" || { cat "bench-out/$$name.txt"; exit 1; }; \
		cat "bench-out/$$name.txt"; \
	done
	$(GO) run ./cmd/smartmem-loadgen -inprocess -rate 2000 -duration 2s -conns 2 -quiet -bench > bench-out/loadgen.txt
	@cat bench-out/loadgen.txt
	$(GO) run ./cmd/smartmem-benchjson $$(printf '%s\n' "$$BENCH_SUITE" | awk '{print "bench-out/" $$1 ".txt"}') bench-out/loadgen.txt > bench-out/BENCH.json
	@echo "wrote bench-out/BENCH.json"

# Regenerate the committed baseline: the suite above, copied to BENCH.json.
bench-json: bench
	cp bench-out/BENCH.json BENCH.json

# Perf gate: hold bench-out/BENCH.json (from `make bench`) against the
# committed BENCH.json under the per-benchmark budgets. CI runs this
# (failing the build on a busted budget) before refreshing the committed
# baseline.
bench-gate:
	@test -f bench-out/BENCH.json || { echo "bench-out/BENCH.json missing: run 'make bench' first"; exit 1; }
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
# server reads them), and on the sim kernel's
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
