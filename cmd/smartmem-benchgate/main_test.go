package main

import (
	"encoding/json"
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

func benchLine(name string, ns, allocs float64) string {
	return fmt.Sprintf(`{"name":%q,"iterations":100,"metrics":{"ns/op":%g,"allocs/op":%g}}`,
		name, ns, allocs)
}

func benchFile(t *testing.T, fname string, lines ...string) string {
	return writeFile(t, fname, `{"benchmarks":[`+strings.Join(lines, ",")+`]}`)
}

func TestGateBenchBudgets(t *testing.T) {
	base := benchFile(t, "base.json",
		benchLine("BenchmarkFast", 1000, 2),
		benchLine("BenchmarkNoisy/case-1", 1000, 0),
		benchLine("BenchmarkRemoved", 500, 0),
	)
	cur := benchFile(t, "cur.json",
		benchLine("BenchmarkFast", 1050, 2),         // +5%: inside the 10% default
		benchLine("BenchmarkNoisy/case-1", 1400, 0), // +40%: inside its 50% override
		benchLine("BenchmarkNew", 10, 0),
	)
	budgets := budgetTable{prefixes: map[string]float64{"BenchmarkNoisy": 0.50}, def: 0.10}

	var out strings.Builder
	fails, err := gateBench(&out, cur, base, budgets)
	if err != nil {
		t.Fatalf("gateBench: %v", err)
	}
	if fails != 0 {
		t.Fatalf("fails = %d, want 0\n%s", fails, out.String())
	}
	for _, want := range []string{"gone  BenchmarkRemoved", "new   BenchmarkNew"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}

	// Push BenchmarkFast past 10%: one ns/op violation.
	cur = benchFile(t, "cur2.json",
		benchLine("BenchmarkFast", 1200, 2),
		benchLine("BenchmarkNoisy/case-1", 1000, 0),
	)
	out.Reset()
	fails, err = gateBench(&out, cur, base, budgets)
	if err != nil || fails != 1 {
		t.Fatalf("fails = %d (err %v), want 1\n%s", fails, err, out.String())
	}
	if !strings.Contains(out.String(), "FAIL  BenchmarkFast") {
		t.Errorf("no FAIL line for BenchmarkFast:\n%s", out.String())
	}
}

// A run taken with GOMAXPROCS > 1 names every benchmark "BenchmarkX-N";
// through benchfmt it still meets its rows in a baseline taken on one CPU,
// so an over-budget row fails instead of passing as "gone" + "new".
func TestGateSuffixedRunAgainstUnsuffixedBaseline(t *testing.T) {
	base := benchFile(t, "base.json",
		benchLine("BenchmarkFast", 1000, 0),
		benchLine("BenchmarkNoisy/case-1", 1000, 0),
	)
	var rep benchfmt.Report
	run := `pkg: smartmem/x
BenchmarkFast-2          	     100	      1300 ns/op	       0 allocs/op
BenchmarkNoisy/case-1-2  	     100	      1000 ns/op	       0 allocs/op
ok  	smartmem/x	0.1s
`
	if err := benchfmt.Parse(strings.NewReader(run), &rep); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	cur := writeFile(t, "cur.json", string(raw))

	var out strings.Builder
	fails, err := gateBench(&out, cur, base, budgetTable{def: 0.10})
	if err != nil || fails != 1 {
		t.Fatalf("fails = %d (err %v), want 1\n%s", fails, err, out.String())
	}
	if !strings.Contains(out.String(), "FAIL  BenchmarkFast") {
		t.Errorf("no FAIL line for BenchmarkFast:\n%s", out.String())
	}
	for _, unmatched := range []string{"gone ", "new "} {
		if strings.Contains(out.String(), unmatched) {
			t.Errorf("report has %q rows:\n%s", unmatched, out.String())
		}
	}
}

func TestGateBenchAllocsAbsolute(t *testing.T) {
	base := benchFile(t, "base.json", benchLine("BenchmarkHot", 100, 0))
	budgets := budgetTable{def: 0.10}

	// 0 -> 1 alloc rides the +1 slack; 0 -> 2 fails even though the
	// relative budget would never trip on a 0 baseline.
	var out strings.Builder
	fails, err := gateBench(&out, benchFile(t, "ok.json", benchLine("BenchmarkHot", 100, 1)), base, budgets)
	if err != nil || fails != 0 {
		t.Fatalf("+1 alloc: fails = %d (err %v)\n%s", fails, err, out.String())
	}
	out.Reset()
	fails, err = gateBench(&out, benchFile(t, "bad.json", benchLine("BenchmarkHot", 100, 2)), base, budgets)
	if err != nil || fails != 1 {
		t.Fatalf("+2 allocs: fails = %d (err %v), want 1\n%s", fails, err, out.String())
	}
}

func TestGateBenchQuantileMetrics(t *testing.T) {
	mk := func(fname string, p99 float64) string {
		return writeFile(t, fname, fmt.Sprintf(
			`{"benchmarks":[{"name":"BenchmarkLoadgen/op=all/conns=4","iterations":5000,"metrics":{"p50-ns":600000,"p99-ns":%g,"ops/s":2000}}]}`, p99))
	}
	budgets := budgetTable{def: 0.10}
	var out strings.Builder
	fails, err := gateBench(&out, mk("ok.json", 1_050_000), mk("base.json", 1_000_000), budgets)
	if err != nil || fails != 0 {
		t.Fatalf("within budget: fails = %d (err %v)\n%s", fails, err, out.String())
	}
	out.Reset()
	fails, err = gateBench(&out, mk("bad.json", 1_500_000), mk("base2.json", 1_000_000), budgets)
	if err != nil || fails != 1 {
		t.Fatalf("p99 regression: fails = %d (err %v), want 1\n%s", fails, err, out.String())
	}
}

func TestLoadBudgetsAndLookup(t *testing.T) {
	path := writeFile(t, "budgets.txt", `
# macro benches are noisy on shared runners
BenchmarkEngine 0.60
BenchmarkEngine_TimesSweep 0.90
BenchmarkLoadgen 0.75
`)
	tab, err := loadBudgets(path, 0.10)
	if err != nil {
		t.Fatalf("loadBudgets: %v", err)
	}
	for name, want := range map[string]float64{
		"BenchmarkEngine_ScaleScenario/vms-4":   0.60,
		"BenchmarkEngine_TimesSweep/parallel-1": 0.90, // longest prefix wins
		"BenchmarkLoadgen/op=all/conns=4":       0.75,
		"BenchmarkHDRRecord/serial":             0.10, // default
	} {
		if got := tab.lookup(name); got != want {
			t.Errorf("lookup(%s) = %g, want %g", name, got, want)
		}
	}
	if _, err := loadBudgets(writeFile(t, "bad.txt", "BenchmarkX not-a-number\n"), 0.1); err == nil {
		t.Error("bad budget line: want error")
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
