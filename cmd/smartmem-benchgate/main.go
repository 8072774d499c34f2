// Command smartmem-benchgate turns the repo's benchmark runs into a CI
// gate. It has two modes:
//
// Bench mode holds a change's `go test -bench` output against its base's,
// both taken by `make bench-gate` as alternating runs on one machine in one
// session. Each directory holds one text file per bench group with every
// run appended:
//
//	smartmem-benchgate -baseline bench-out/base -current bench-out/head
//
// A row fails when the head's median ns/op is above the base's median
// times 1 + max(3 × IQR/median, 0.10), IQR being the interquartile range of
// the base's runs: each row's budget is its own measured spread, so a
// noisy row gets slack a steady one does not. allocs/op is gated
// absolutely: a row fails when the head's median count is above the
// largest count of the base's runs. Allocation counts are deterministic
// on most rows, so even one new allocation on a hot path fails, where a
// ratio test would wave 0 -> 1 through; a row whose count varies from run
// to run gets the base's own range as slack. Rows on one side only are
// reported as gone or new and fail nothing (renames happen).
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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"smartmem/internal/benchfmt"
)

func main() {
	var (
		current  = flag.String("current", "", "directory of the change's bench output to judge")
		baseline = flag.String("baseline", "", "directory of the base's bench output")
		loadRep  = flag.String("load", "", "loadgen JSON report to hold against -min-rate/-max-p99")
		minRate  = flag.Float64("min-rate", 0, "minimum achieved op rate for -load")
		maxP99   = flag.Duration("max-p99", 0, "ceiling for the overall p99 latency for -load")
	)
	flag.Parse()

	switch {
	case *loadRep != "":
		fails, err := gateLoad(os.Stdout, *loadRep, *minRate, *maxP99)
		exit(fails, err)
	case *current != "" && *baseline != "":
		base, err := readRuns(*baseline)
		if err != nil {
			exit(0, err)
		}
		head, err := readRuns(*current)
		if err != nil {
			exit(0, err)
		}
		exit(gateBench(os.Stdout, base, head), nil)
	default:
		fmt.Fprintln(os.Stderr, "smartmem-benchgate: -baseline with -current, or -load, is required")
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

// readRuns parses every .txt file in dir.
func readRuns(dir string) (benchfmt.Samples, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	runs := benchfmt.Samples{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		err = runs.Parse(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", dir)
	}
	return runs, nil
}

// minBudget is the least slack a row's ns/op gets, however steady its base.
const minBudget = 0.10

// budget is the relative slack over the base's median ns/op: three times
// the base's interquartile range over its median, at least minBudget.
func budget(base []float64) float64 {
	q1, median, q3 := benchfmt.Quartiles(base)
	return max(3*(q3-q1)/median, minBudget)
}

// gateBench judges head against base and returns the violation count.
func gateBench(w io.Writer, base, head benchfmt.Samples) int {
	fails := 0
	verdict := func(failed bool) string {
		if failed {
			fails++
			return "FAIL "
		}
		return "ok   "
	}
	for _, name := range slices.Sorted(maps.Keys(base)) {
		bm, hm := base[name], head[name]
		if hm == nil {
			fmt.Fprintf(w, "gone  %-60s (in base, not in head)\n", name)
			continue
		}
		if bv, hv := bm["ns/op"], hm["ns/op"]; len(bv) > 0 && len(hv) > 0 {
			_, bmed, _ := benchfmt.Quartiles(bv)
			_, hmed, _ := benchfmt.Quartiles(hv)
			b := budget(bv)
			fmt.Fprintf(w, "%s %-60s ns/op     %12.1f -> %12.1f  x%.2f (budget +%.0f%%)\n",
				verdict(hmed > bmed*(1+b)), name, bmed, hmed, hmed/bmed, b*100)
		}
		if bv, hv := bm["allocs/op"], hm["allocs/op"]; len(bv) > 0 && len(hv) > 0 {
			_, bmed, _ := benchfmt.Quartiles(bv)
			_, hmed, _ := benchfmt.Quartiles(hv)
			limit := slices.Max(bv)
			fmt.Fprintf(w, "%s %-60s allocs/op %12.0f -> %12.0f  (limit %.0f, the base's largest)\n",
				verdict(hmed > limit), name, bmed, hmed, limit)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(head)) {
		if base[name] == nil {
			fmt.Fprintf(w, "new   %-60s (in head, not in base)\n", name)
		}
	}
	return fails
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
