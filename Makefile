GO ?= go

.PHONY: all build test race vet lint fmt loc bench bench-gate bench-e2e-test load-smoke load-smoke-durable sim-smoke sweep-smoke fuzz-smoke profile profile-sweep report clean

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
# whole module plus the nested benchmark/ module, which `go vet ./...`
# skips although it imports the internal packages. CI runs this.
lint: vet
	$(GO) vet -C benchmark ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -l -w .

# Non-test Go lines (wc -l: comments and blank lines count) per package
# directory outside benchmark/, and their total. Informational: no
# threshold. ROADMAP budgets the total.
loc:
	@find . -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print | while read -r f; do \
		echo "$${f%/*} $$(wc -l < "$$f")"; \
	done | awk '{ n[$$1] += $$2; t += $$2 } END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# The bench suite, one group per line: output name, package, -bench
# regexp and -benchtime. Every group runs with -benchmem, so the gate holds
# each row's allocs/op. The sim kernel, store, tier and hdr groups pin
# zero-allocation hot paths; BackendParallel compares the striped store
# against the shards-1 (single-mutex) baseline, and the remote-tier -batch
# variants report transport round-trips/op. BenchmarkLogPutBatch rides the
# WAL line: a journaled 16-page batch allocates no page copy.
# BenchmarkCompact, one whole compaction of a 128 MiB journal that
# allocates O(slab), is a group of its own at 10x: about 4 s a run. The
# counts keep every other group's run between 0.2 and 3 s, so the gate's
# 10 pairs take 4 to 6 minutes on 2 CPUs.
# BenchmarkMemoScalarDecode decodes one cluster-2 cell's scalar record,
# the per-cell work of a warm sweep rerun.
# bench_test.go's macro benchmarks (BenchmarkEngine, BenchmarkSweep,
# BenchmarkRunCluster) are left out: the sweep-paper and sweep-ext
# workloads of BENCHMARK.json time those paths end to end. Run them by
# hand with go test -bench.
define BENCH_SUITE
sim-kernel       ./internal/sim     BenchmarkKernel|BenchmarkProcSleep|BenchmarkCondPingPong 1000000x
tmem-parallel    ./internal/tmem    BenchmarkBackendParallel                                 100000x
tmem-putgetflush ./internal/tmem    BenchmarkBackendPutGetFlush|BenchmarkBackendSwapSweep    1000000x
tmem-remote-tier ./internal/tmem    BenchmarkRemoteTier                                      10000x
tmem-compressed  ./internal/tmem    BenchmarkCompressedTier                                  10000x
kvserver         ./internal/kvstore BenchmarkKVServer                                        10000x
durable-wal      ./internal/durable BenchmarkWALAppend|BenchmarkLogPutBatch                  1000x
durable-compact  ./internal/durable BenchmarkCompact                                         10x
hdr              ./internal/hdr     BenchmarkHDR                                             1000000x
experiments-memo ./internal/experiments BenchmarkMemoScalarDecode                           100000x
endef
export BENCH_SUITE

# Run the suite once into bench-out/<group>.txt. Each group is written to
# its file before it is printed, so a failing bench fails the target
# (POSIX sh has no pipefail).
bench:
	@mkdir -p bench-out
	@printf '%s\n' "$$BENCH_SUITE" | while read -r name pkg pat n; do \
		echo "$(GO) test -run '^$$' -bench '$$pat' -benchtime $$n -benchmem $$pkg"; \
		$(GO) test -run '^$$' -bench "$$pat" -benchtime "$$n" -benchmem "$$pkg" > "bench-out/$$name.txt" || { cat "bench-out/$$name.txt"; exit 1; }; \
		cat "bench-out/$$name.txt"; \
	done

# Perf gate: the suite at BASE (a git ref) against the working tree, on
# one machine in one session. BASE is extracted with git archive into a
# temporary directory outside the module, and each group's test binary is
# built once in each tree. The two binaries then run as 10 alternating
# pairs, one run each, the side that goes first flipping every pair, so
# both sides meet the same host states. Runs append to
# bench-out/{base,head}/<group>.txt; smartmem-benchgate fails a row whose
# head median leaves the budget set by the base's own spread. CI sets BASE
# to the pull request's base commit.
BASE ?= HEAD
bench-gate:
	@rm -rf bench-out/base bench-out/head && mkdir -p bench-out/base bench-out/head
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/src" "$$tmp/base" "$$tmp/head" && \
	git archive "$(BASE)" | tar -x -C "$$tmp/src" && \
	printf '%s\n' "$$BENCH_SUITE" | while read -r name pkg pat n; do \
		(cd "$$tmp/src" && $(GO) test -c -o "$$tmp/base/$$name.test" "$$pkg") && \
		$(GO) test -c -o "$$tmp/head/$$name.test" "$$pkg" || exit 1; \
	done && \
	for pair in 1 2 3 4 5 6 7 8 9 10; do \
		echo "bench-gate: pair $$pair of 10"; \
		if [ $$((pair % 2)) = 1 ]; then sides="base head"; else sides="head base"; fi; \
		printf '%s\n' "$$BENCH_SUITE" | while read -r name pkg pat n; do \
			for side in $$sides; do \
				if [ $$side = base ]; then root="$$tmp/src"; else root=.; fi; \
				(cd "$$root/$$pkg" && "$$tmp/$$side/$$name.test" -test.run '^$$' -test.bench "$$pat" \
					-test.benchtime "$$n" -test.benchmem -test.timeout 5m) >> "bench-out/$$side/$$name.txt" || \
					{ echo "bench-gate: $$name failed on $$side, see bench-out/$$side/$$name.txt"; exit 1; }; \
			done; \
		done || exit 1; \
	done
	$(GO) run ./cmd/smartmem-benchgate -baseline bench-out/base -current bench-out/head

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

# Scenario smokes for the tiers, one run each into bench-out/<scenario>.txt:
# remote tmem tiers (cluster-2, remote-heavy, node-imbalance), the
# in-RAM compressed tier with dedup (memory-pressure) and the durable
# WAL + snapshot journal (restart-survivor). cluster-2 also draws its
# -chart, which nothing else runs. A failing run fails the target; the five
# outputs are printed once all have run.
sim-smoke:
	mkdir -p bench-out
	$(GO) run ./cmd/smartmem-sim -scenario cluster-2 -policy smart-alloc:P=2 -seed 11 -quiet -chart > bench-out/cluster-2.txt
	$(GO) run ./cmd/smartmem-sim -scenario remote-heavy -policy greedy -seed 11 -quiet > bench-out/remote-heavy.txt
	$(GO) run ./cmd/smartmem-sim -scenario node-imbalance -policy smart-alloc:P=2 -seed 11 -quiet > bench-out/node-imbalance.txt
	$(GO) run ./cmd/smartmem-sim -scenario memory-pressure -policy smart-alloc:P=2 -seed 11 -quiet > bench-out/memory-pressure.txt
	$(GO) run ./cmd/smartmem-sim -scenario restart-survivor -policy smart-alloc:P=2 -seed 11 -quiet > bench-out/restart-survivor.txt
	@cat bench-out/cluster-2.txt bench-out/remote-heavy.txt bench-out/node-imbalance.txt \
		bench-out/memory-pressure.txt bench-out/restart-survivor.txt

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
# server reads them), on the LZ encoder against its byte-at-a-time
# reference, on the journal's fault harness (a random history whose WAL
# write tears at a random point must acknowledge nothing after it and
# recover the state at the fault), and on the sim kernel's
# run-ahead equivalence harness (random process programs must run the same
# under a plain Step loop and under every loop that runs ahead). `go test -fuzz` takes
# one target and one package per run. The minimizer is capped by
# executions: left at its default it spends a minute shrinking each
# coverage-expanding input, which is the whole smoke.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 5s -fuzzminimizetime 500x ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime 5s -fuzzminimizetime 500x ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzLogFaults$$' -fuzztime 5s -fuzzminimizetime 500x ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 5s -fuzzminimizetime 500x ./internal/tmem
	$(GO) test -run '^$$' -fuzz '^FuzzLZEncodeMatchesReference$$' -fuzztime 5s -fuzzminimizetime 500x ./internal/tmem
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
