package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The smoke runs every workload's code path at a fraction of its scale —
// fewer cells, half a second of traffic, one set-up — through the correctness
// gate, untraced and traced, and checks each mode reports exactly the
// metrics BENCHMARK.json lists for it. With -short only the untraced mode
// runs: the traced legs (profiled pass, decorated cells, overhead and
// null-store loops) are most of the time.
func TestSmokeEveryWorkload(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	outDir = t.TempDir()
	small := map[string]sweepSpec{
		"sweep-paper": {slugs: []string{"usemem"}, policies: []string{"greedy", "static-alloc", "smart-alloc:P=2"}},
		"sweep-ext":   {slugs: []string{"cluster-2", "memory-pressure", "restart-survivor"}, policies: []string{"static-alloc", "smart-alloc:P=2"}},
	}
	modes := []bool{false, true}
	if testing.Short() {
		modes = modes[:1]
	}
	for _, w := range bf.Workloads {
		for _, traced := range modes {
			var res *result
			var err error
			began := time.Now()
			if spec, ok := small[w.Name]; ok {
				spec.name, spec.secondsPerSeed, spec.coldPasses = w.Name, 1, 1
				res, err = runSweep(spec, 11, 1, traced, t.TempDir())
			} else {
				spec := serveSpecs[w.Name]
				spec.setups = 1
				if spec.journal {
					// An eighth of the keys and of every tier, and a journal
					// that still compacts within the second.
					spec.mix.slots /= 8
					spec.localPages /= 8
					spec.compressBytes /= 8
					spec.peerPages /= 8
					spec.compactBytes = 8 << 20
				}
				res, err = runServe(spec, 11, 0.5, traced, t.TempDir())
			}
			t.Logf("%s traced=%v: %.1f s", w.Name, traced, time.Since(began).Seconds())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed, gate: %v", w.Name, traced, res.failed, res.attempted, res.gateErrs)
			}
			if err := emit(bf, res, traced, io.Discard); err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
			if traced {
				if fi, err := os.Stat(filepath.Join(outDir, w.Name+".spans.json")); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
}
