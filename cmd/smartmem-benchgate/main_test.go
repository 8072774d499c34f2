package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartmem/internal/benchfmt"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tenRuns is one row's ns/op over ten runs, spread as a quiet host spreads
// them: IQR 45 around a median of 1000, a 13.5% budget.
var tenRuns = []float64{960, 1040, 990, 1010, 970, 1030, 1000, 1020, 980, 1000}

func row(ns []float64, allocs float64) map[string][]float64 {
	a := make([]float64, len(ns))
	for i := range a {
		a[i] = allocs
	}
	return map[string][]float64{"ns/op": ns, "allocs/op": a}
}

func scaled(ns []float64, f float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = v * f
	}
	return out
}

func gate(t *testing.T, base, head benchfmt.Samples) (int, string) {
	t.Helper()
	var out strings.Builder
	fails := gateBench(&out, base, head)
	return fails, out.String()
}

func TestGateBenchIdenticalSamplesPass(t *testing.T) {
	runs := benchfmt.Samples{
		"BenchmarkSteady": row([]float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}, 0),
		"BenchmarkNoisy":  row(tenRuns, 3),
	}
	if fails, out := gate(t, runs, runs); fails != 0 {
		t.Fatalf("fails = %d, want 0\n%s", fails, out)
	}
}

func TestGateBenchDoubledRowFailsAlone(t *testing.T) {
	base := benchfmt.Samples{
		"BenchmarkA": row(tenRuns, 0),
		"BenchmarkB": row(tenRuns, 0),
	}
	head := benchfmt.Samples{
		"BenchmarkA": row(scaled(tenRuns, 2), 0),
		"BenchmarkB": row(tenRuns, 0),
	}
	fails, out := gate(t, base, head)
	if fails != 1 || !strings.Contains(out, "FAIL  BenchmarkA ") || strings.Contains(out, "FAIL  BenchmarkB ") {
		t.Fatalf("fails = %d, want 1 on BenchmarkA only\n%s", fails, out)
	}
	if !strings.Contains(out, "x2.00 (budget +14%)") {
		t.Errorf("report lacks the ratio and budget:\n%s", out)
	}
}

func TestGateBenchAllocsAbsolute(t *testing.T) {
	base := benchfmt.Samples{"BenchmarkHot": row(tenRuns, 0)}

	// On a zero-allocation row even one new allocation per op fails, which
	// a relative budget would never catch on a 0 base.
	for _, allocs := range []float64{1, 2} {
		if fails, out := gate(t, base, benchfmt.Samples{"BenchmarkHot": row(tenRuns, allocs)}); fails != 1 {
			t.Errorf("+%g allocs: fails = %d, want 1\n%s", allocs, fails, out)
		}
	}

	// A row whose count varies from run to run passes anywhere inside the
	// base's range and fails above it.
	base["BenchmarkVaries"] = map[string][]float64{
		"ns/op":     tenRuns,
		"allocs/op": {1084, 1086, 1084, 1087, 1085, 1083, 1086, 1085, 1084, 1088},
	}
	head := benchfmt.Samples{
		"BenchmarkHot":    row(tenRuns, 0),
		"BenchmarkVaries": row(tenRuns, 1088),
	}
	if fails, out := gate(t, base, head); fails != 0 {
		t.Errorf("inside the base's range: fails = %d, want 0\n%s", fails, out)
	}
	head["BenchmarkVaries"] = row(tenRuns, 1090)
	if fails, out := gate(t, base, head); fails != 1 || !strings.Contains(out, "FAIL  BenchmarkVaries ") {
		t.Errorf("+2 over the base's largest: fails = %d, want 1\n%s", fails, out)
	}
}

// A row's budget is three times its base's relative IQR, and a base with no
// spread at all still gets the 10% floor.
func TestGateBenchBudgets(t *testing.T) {
	if b := budget(tenRuns); b != 0.135 {
		t.Errorf("budget(IQR 45, median 1000) = %g, want 0.135", b)
	}
	flat := []float64{200, 200, 200, 200, 200, 200, 200, 200, 200, 200}
	if b := budget(flat); b != minBudget {
		t.Errorf("budget(no spread) = %g, want the %g floor", b, minBudget)
	}
	base := benchfmt.Samples{"BenchmarkFlat": row(flat, 0)}
	if fails, out := gate(t, base, benchfmt.Samples{"BenchmarkFlat": row(scaled(flat, 1.09), 0)}); fails != 0 {
		t.Errorf("+9%% on a flat base: fails = %d, want 0\n%s", fails, out)
	}
	if fails, out := gate(t, base, benchfmt.Samples{"BenchmarkFlat": row(scaled(flat, 1.11), 0)}); fails != 1 {
		t.Errorf("+11%% on a flat base: fails = %d, want 1\n%s", fails, out)
	}
}

func TestGateBenchGoneAndNewRowsPass(t *testing.T) {
	fails, out := gate(t,
		benchfmt.Samples{"BenchmarkKept": row(tenRuns, 0), "BenchmarkRemoved": row(tenRuns, 0)},
		benchfmt.Samples{"BenchmarkKept": row(tenRuns, 0), "BenchmarkAdded": row(scaled(tenRuns, 9), 9)})
	if fails != 0 {
		t.Fatalf("fails = %d, want 0\n%s", fails, out)
	}
	for _, want := range []string{"gone  BenchmarkRemoved", "new   BenchmarkAdded"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// A run taken with GOMAXPROCS > 1 names every benchmark "BenchmarkX-N";
// read through benchfmt it still meets its rows in runs taken on one CPU,
// so a slowed row fails instead of passing as "gone" + "new".
func TestGateSuffixedRunAgainstUnsuffixedBaseline(t *testing.T) {
	runs := func(suffix string, fast float64) string {
		var b strings.Builder
		for range 5 {
			fmt.Fprintf(&b, "pkg: smartmem/x\nBenchmarkFast%s 100 %g ns/op 0 allocs/op\nBenchmarkNoisy/case-1%s 100 1000 ns/op\nok smartmem/x 0.1s\n",
				suffix, fast, suffix)
		}
		return b.String()
	}
	baseDir := filepath.Dir(writeFile(t, "g.txt", runs("", 1000)))
	headDir := filepath.Dir(writeFile(t, "g.txt", runs("-2", 1300)))
	base, err := readRuns(baseDir)
	if err != nil {
		t.Fatal(err)
	}
	head, err := readRuns(headDir)
	if err != nil {
		t.Fatal(err)
	}
	fails, out := gate(t, base, head)
	if fails != 1 || !strings.Contains(out, "FAIL  BenchmarkFast ") {
		t.Fatalf("fails = %d, want 1 on BenchmarkFast\n%s", fails, out)
	}
	for _, unmatched := range []string{"gone ", "new "} {
		if strings.Contains(out, unmatched) {
			t.Errorf("report has %q rows:\n%s", unmatched, out)
		}
	}
	if _, err := readRuns(t.TempDir()); err == nil {
		t.Error("readRuns of an empty directory: want error")
	}
}

func TestGateLoad(t *testing.T) {
	report := func(fname string, rate float64, errors int64, p99 int64) string {
		return writeFile(t, fname, fmt.Sprintf(`{"loadgen":{
			"achieved_rate":%g,"sent":4000,"completed":4000,"errors":%d,
			"ops":{"all":{"count":4000,"p50_ns":700000,"p99_ns":%d}}}}`,
			rate, errors, p99))
	}
	var out strings.Builder
	fails, err := gateLoad(&out, report("ok.json", 1990, 0, 2_000_000), 1500, 50*time.Millisecond)
	if err != nil || fails != 0 {
		t.Fatalf("healthy report: fails = %d (err %v)\n%s", fails, err, out.String())
	}

	for _, tc := range []struct {
		name string
		path string
	}{
		{"slow", report("slow.json", 900, 0, 2_000_000)},
		{"errors", report("errors.json", 1990, 3, 2_000_000)},
		{"p99", report("p99.json", 1990, 0, int64(80*time.Millisecond))},
	} {
		out.Reset()
		fails, err := gateLoad(&out, tc.path, 1500, 50*time.Millisecond)
		if err != nil || fails == 0 {
			t.Errorf("%s: fails = %d (err %v), want >= 1\n%s", tc.name, fails, err, out.String())
		}
	}
}
