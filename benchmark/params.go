package main

import (
	"sort"
	"time"
)

// Every size, rate and limit of the four workloads, fixed here so that two
// commits are always measured under the same load. Nothing below is scaled
// at run time from what the machine can do; the only run-time input is
// --seconds, which sets phase lengths and the number of sweep seeds.

var sweepSpecs = map[string]sweepSpec{
	// The paper's evaluation (Table II) under every policy its figures
	// compare: 4 scenarios × 9 policy specs per seed.
	"sweep-paper": {
		name:           "sweep-paper",
		slugs:          []string{"s1", "s2", "usemem", "s3"},
		secondsPerSeed: 20,
		coldPasses:     3,
	},
	// The extension scenarios that route pages through the remote,
	// compressed and durable tiers and the cluster runtime: 6 scenarios × 3
	// policies per seed, many short cells.
	"sweep-ext": {
		name:           "sweep-ext",
		slugs:          []string{"cluster-2", "remote-heavy", "node-imbalance", "memory-pressure", "restart-survivor", "scale-16"},
		policies:       []string{"greedy", "static-alloc", "smart-alloc:P=2"},
		secondsPerSeed: 6.7,
		coldPasses:     3,
	},
}

// allSlugs names the per-slug cell-time metrics, in BENCHMARK.json order.
var allSlugs = append(append([]string(nil), sweepSpecs["sweep-paper"].slugs...), sweepSpecs["sweep-ext"].slugs...)

var serveSpecs = map[string]serveSpec{
	// Read-mostly single-page traffic over a working set that fits: the
	// wire layer and the striped store's hot path; no tier, no journal.
	"serve-get": {
		name: "serve-get",
		mix: trafficMix{
			conns: workers, slots: 24 << 10 / workers, batch: 1,
			get: 80, put: 15, flush: 5, zipfS: 1.1,
		},
		localPages: 32 << 10,
		depth:      32,
		setups:     7,
		openRate:   60000,
		window:     100 * time.Millisecond,
		tailQ:      0.99,
		limit:      5 * time.Millisecond,
	},
	// Write-heavy 16-page batch traffic over four times the local capacity,
	// journaled, overflowing into the compressed tier and a peer server.
	"serve-put-tiers": {
		name: "serve-put-tiers",
		mix: trafficMix{
			conns: workers, slots: 32 << 10 / workers, batch: 16,
			get: 20, put: 70, flush: 10,
		},
		localPages:    8 << 10,
		depth:         32,
		compressBytes: 16 << 20,
		peerPages:     16 << 10,
		journal:       true,
		compactBytes:  192 << 20,
		setups:        5,
		openRate:      800,
		window:        250 * time.Millisecond,
		tailQ:         0.90,
		limit:         1300 * time.Millisecond,
	},
}

func workloadNames() []string {
	var names []string
	for n := range sweepSpecs {
		names = append(names, n)
	}
	for n := range serveSpecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
