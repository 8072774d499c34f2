// Command smartmem-benchgate turns the repo's benchmark snapshots into a
// CI gate. It has two modes:
//
// Bench mode compares a fresh BENCH.json (cmd/smartmem-benchjson output)
// against the committed baseline and fails when a benchmark regresses past
// its budget:
//
//	smartmem-benchgate -current bench-out/BENCH.json -baseline BENCH.json \
//	    -budgets bench-budgets.txt -default-budget 0.10
//
// Lower-is-better metrics (ns/op, p50-ns, p99-ns, p999-ns) fail when
// current > baseline*(1+budget); higher-is-better ops/s fails when
// current < baseline*(1-budget); allocs/op is gated absolutely (baseline+1
// — allocation counts are deterministic, so even one new allocation on a
// hot path is a real change, while the ratio test would wave through
// 0 -> 1). Budgets come from a "name-prefix fraction" file, longest prefix
// wins, so noisy macro benchmarks can carry wider budgets than
// deterministic micro benchmarks. Benchmarks only in the baseline are
// reported but do not fail the gate (renames happen); benchmarks only in
// the current run are reported as new.
//
// Load mode holds a loadgen JSON report (cmd/smartmem-loadgen -json)
// against serving SLOs:
//
//	smartmem-benchgate -load load.json -min-rate 2000 -max-p99 50ms
//
// and fails on transport errors, achieved rate under -min-rate, or an
// overall p99 above -max-p99.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"smartmem/internal/benchfmt"
)

func main() {
	var (
		current   = flag.String("current", "", "fresh BENCH.json to judge")
		baseline  = flag.String("baseline", "BENCH.json", "committed baseline BENCH.json")
		budgets   = flag.String("budgets", "", "per-benchmark budget overrides (name-prefix fraction per line)")
		defBudget = flag.Float64("default-budget", 0.10, "relative regression budget when no override matches")
		loadRep   = flag.String("load", "", "loadgen JSON report to hold against -min-rate/-max-p99")
		minRate   = flag.Float64("min-rate", 0, "minimum achieved op rate for -load")
		maxP99    = flag.Duration("max-p99", 0, "ceiling for the overall p99 latency for -load")
	)
	flag.Parse()

	switch {
	case *loadRep != "":
		fails, err := gateLoad(os.Stdout, *loadRep, *minRate, *maxP99)
		exit(fails, err)
	case *current != "":
		over, err := loadBudgets(*budgets, *defBudget)
		if err != nil {
			exit(0, err)
		}
		fails, err := gateBench(os.Stdout, *current, *baseline, over)
		exit(fails, err)
	default:
		fmt.Fprintln(os.Stderr, "smartmem-benchgate: -current or -load is required")
		os.Exit(2)
	}
}

func exit(fails int, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "smartmem-benchgate:", err)
		os.Exit(2)
	}
	if fails > 0 {
		fmt.Printf("FAIL: %d budget violation(s)\n", fails)
		os.Exit(1)
	}
	fmt.Println("PASS")
}

func readBench(path string) (map[string]map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchfmt.Report
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string]float64, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		out[b.Name] = b.Metrics
	}
	return out, nil
}

// budgetTable resolves a benchmark name to its relative budget by longest
// matching prefix, falling back to the default.
type budgetTable struct {
	prefixes map[string]float64
	def      float64
}

func (t budgetTable) lookup(name string) float64 {
	best, budget := -1, t.def
	for p, b := range t.prefixes {
		if len(p) > best && strings.HasPrefix(name, p) {
			best, budget = len(p), b
		}
	}
	return budget
}

// loadBudgets parses the override file: one "name-prefix fraction" pair
// per line, '#' comments, blank lines ignored.
func loadBudgets(path string, def float64) (budgetTable, error) {
	t := budgetTable{prefixes: map[string]float64{}, def: def}
	if path == "" {
		return t, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return t, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return t, fmt.Errorf("%s:%d: want \"name-prefix fraction\", got %q", path, line, text)
		}
		frac, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || frac < 0 {
			return t, fmt.Errorf("%s:%d: bad budget %q", path, line, fields[1])
		}
		t.prefixes[fields[0]] = frac
	}
	return t, sc.Err()
}

// gated metrics where smaller is better, in report order.
var lowerBetter = []string{"ns/op", "p50-ns", "p99-ns", "p999-ns"}

// gateBench judges current against base and returns the violation count.
func gateBench(w io.Writer, currentPath, basePath string, budgets budgetTable) (int, error) {
	cur, err := readBench(currentPath)
	if err != nil {
		return 0, err
	}
	base, err := readBench(basePath)
	if err != nil {
		return 0, err
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	fails := 0
	for _, name := range names {
		bm, cm := base[name], cur[name]
		if cm == nil {
			fmt.Fprintf(w, "gone  %-60s (in baseline, not in current run)\n", name)
			continue
		}
		budget := budgets.lookup(name)
		for _, metric := range lowerBetter {
			bv, okB := bm[metric]
			cv, okC := cm[metric]
			if !okB || !okC || bv <= 0 {
				continue
			}
			limit := bv * (1 + budget)
			verdict := "ok   "
			if cv > limit {
				verdict = "FAIL "
				fails++
			}
			fmt.Fprintf(w, "%s %-60s %-8s %12.0f -> %12.0f (budget +%.0f%%, limit %.0f)\n",
				verdict, name, metric, bv, cv, budget*100, limit)
		}
		if bv, ok := bm["ops/s"]; ok && bv > 0 {
			if cv, ok := cm["ops/s"]; ok {
				limit := bv * (1 - budget)
				verdict := "ok   "
				if cv < limit {
					verdict = "FAIL "
					fails++
				}
				fmt.Fprintf(w, "%s %-60s %-8s %12.0f -> %12.0f (budget -%.0f%%, floor %.0f)\n",
					verdict, name, "ops/s", bv, cv, budget*100, limit)
			}
		}
		if bv, ok := bm["allocs/op"]; ok {
			if cv, ok := cm["allocs/op"]; ok {
				limit := bv + 1
				verdict := "ok   "
				if cv > limit {
					verdict = "FAIL "
					fails++
				}
				fmt.Fprintf(w, "%s %-60s %-8s %12.0f -> %12.0f (limit %.0f, absolute)\n",
					verdict, name, "allocs", bv, cv, limit)
			}
		}
	}
	for name := range cur {
		if base[name] == nil {
			fmt.Fprintf(w, "new   %-60s (no baseline yet)\n", name)
		}
	}
	return fails, nil
}

// loadReport mirrors the cmd/smartmem-loadgen -json document.
type loadReport struct {
	Loadgen struct {
		AchievedRate float64 `json:"achieved_rate"`
		Sent         int64   `json:"sent"`
		Completed    int64   `json:"completed"`
		Errors       int64   `json:"errors"`
		Ops          map[string]struct {
			Count int64 `json:"count"`
			P50   int64 `json:"p50_ns"`
			P99   int64 `json:"p99_ns"`
		} `json:"ops"`
	} `json:"loadgen"`
}

// gateLoad holds a loadgen report against the serving SLOs.
func gateLoad(w io.Writer, path string, minRate float64, maxP99 time.Duration) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var rep loadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	lg := rep.Loadgen
	if lg.Sent == 0 {
		return 0, fmt.Errorf("%s: empty report (sent 0 ops)", path)
	}
	all, ok := lg.Ops["all"]
	if !ok {
		return 0, fmt.Errorf("%s: no \"all\" histogram", path)
	}

	fails := 0
	check := func(failed bool, format string, args ...any) {
		verdict := "ok   "
		if failed {
			verdict = "FAIL "
			fails++
		}
		fmt.Fprintf(w, "%s %s\n", verdict, fmt.Sprintf(format, args...))
	}
	check(lg.Errors != 0, "transport errors: %d (want 0)", lg.Errors)
	check(lg.Completed != lg.Sent, "completed %d of %d sent", lg.Completed, lg.Sent)
	if minRate > 0 {
		check(lg.AchievedRate < minRate, "achieved %.0f op/s (floor %.0f)", lg.AchievedRate, minRate)
	}
	if maxP99 > 0 {
		check(all.P99 > int64(maxP99), "p99 %v (ceiling %v, p50 %v)",
			time.Duration(all.P99), maxP99, time.Duration(all.P50))
	}
	return fails, nil
}
