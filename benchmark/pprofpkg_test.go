package main

import (
	"math"
	"os"
	"testing"
)

// testdata/sweep.cpu.pb.gz is a CPU profile of a four-cell tournament,
// written by runtime/pprof. The expected figures are `go tool pprof -top`'s
// flat column summed by hand per package.
func TestCPUByPackageAgainstSample(t *testing.T) {
	gz, err := os.ReadFile("testdata/sweep.cpu.pb.gz")
	if err != nil {
		t.Fatal(err)
	}
	byPkg, total, err := cpuByPackage(gz)
	if err != nil {
		t.Fatal(err)
	}
	wantPkg := map[string]float64{
		"runtime":                 0.24, // aeshashbody (assembly, no package) included
		"internal/runtime/maps":   0.03,
		"internal/runtime/atomic": 0.01,
		"sync/atomic":             0.01,
		"smartmem/internal/tmem":  0.05,
		"smartmem/internal/guest": 0.01,
		"smartmem/internal/sim":   0.01,
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if !near(total, 0.36) || len(byPkg) != len(wantPkg) {
		t.Errorf("total %v s over %d packages, want 0.36 s over %d: %v", total, len(byPkg), len(wantPkg), byPkg)
	}
	for pkg, want := range wantPkg {
		if !near(byPkg[pkg], want) {
			t.Errorf("%s: %v s, want %v", pkg, byPkg[pkg], want)
		}
	}
	byLayer := cpuByLayer(byPkg)
	wantLayer := map[string]float64{"runtime": 0.28, "other": 0.01, "tmem": 0.05, "guest": 0.01, "sim": 0.01}
	var sum float64
	for layer, s := range byLayer {
		sum += s
		if !near(s, wantLayer[layer]) {
			t.Errorf("layer %s: %v s, want %v", layer, s, wantLayer[layer])
		}
	}
	if !near(sum, total) {
		t.Errorf("layers sum to %v s, profile holds %v s", sum, total)
	}
}

func TestCPUByPackageRejectsGarbage(t *testing.T) {
	if _, _, err := cpuByPackage([]byte("not a profile")); err == nil {
		t.Error("no error for bytes that are not gzip")
	}
}

func TestPackageOf(t *testing.T) {
	for symbol, want := range map[string]string{
		"smartmem/internal/sim.(*Kernel).Step":              "smartmem/internal/sim",
		"smartmem/internal/tmem.(*Backend).putLocal":        "smartmem/internal/tmem",
		"runtime.mallocgc":                                  "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":      "internal/runtime/maps",
		"type:.eq.smartmem/internal/tmem.Key":               "smartmem/internal/tmem",
		"slices.SortFunc[go.shape.[]smartmem/internal/x.T]": "slices",
		"aeshashbody": "runtime",
		"main.main":   "main",
	} {
		if got := packageOf(symbol); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", symbol, got, want)
		}
	}
}
