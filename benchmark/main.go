// Command benchmark is the repository's ruler: it runs one workload of
// BENCHMARK.json end to end, checks that the program's outputs are correct,
// and prints every metric by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// workers is the load every workload is sized for: engine workers, backend
// shards and client connections. It is the core count of the machine the
// rates in params.go were calibrated on, not a run-time probe — two commits
// must be measured under the same load.
const workers = 2

// result is what one run reports.
type result struct {
	attempted, failed int64
	gateErrs          []string // correctness-gate failures other than failed ops
	metrics           map[string]metricValue
	layers            map[string]metricValue
	notes             []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{metrics: map[string]metricValue{}, layers: map[string]metricValue{}}
}

// set records an end-to-end metric; its unit comes from BENCHMARK.json.
func (r *result) set(name string, v float64) { r.metrics[name] = metricValue{Value: v} }

// layer records a per-layer metric of a traced run.
func (r *result) layer(name string, v float64) { r.layers[name] = metricValue{Value: v} }

// note adds a line to the human-readable report on standard error.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// gate records a failed correctness check.
func (r *result) gate(format string, args ...any) {
	r.gateErrs = append(r.gateErrs, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && len(r.gateErrs) == 0 }

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	// The command runs from the checkout root; tests run from benchmark/.
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &bf, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// emit checks the run reported exactly the metrics BENCHMARK.json lists for
// this mode and prints the result line. A traced run reports every
// per-layer metric; those a workload has no layer for read 0.
func emit(bf *benchmarkFile, res *result, traced bool, w io.Writer) error {
	defs, have := bf.EndToEnd, res.metrics
	if traced {
		defs, have = bf.PerLayer, res.layers
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := have[d.Name]
		if !ok && !traced {
			return fmt.Errorf("benchmark: end-to-end metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v.Value, Unit: d.Unit}
		delete(have, d.Name)
	}
	for name := range have {
		return fmt.Errorf("benchmark: metric %s is not in BENCHMARK.json", name)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{true, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 0, "how long to measure (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
		repeat   = flag.Int("repeat", 0, "run every workload this many times and write the set to -out")
		out      = flag.String("out", "", "with -repeat: file the run set is written to")
		compare  = flag.Bool("compare", false, "compare two run sets: -compare a.json b.json")
		calib    = flag.Bool("calibrate", false, "with a serve -workload: measure what its frozen Phase A rate and limit derive from")
	)
	flag.Parse()
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs of this machine", procs, cpus)
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("usage: -compare a.json b.json")
		}
		return compareSets(bf, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *seconds == 0 {
		*seconds = float64(bf.RunSeconds)
	}
	if *repeat > 0 {
		if *out == "" {
			return fmt.Errorf("-repeat needs -out")
		}
		return repeatRuns(bf, *repeat, *seed, *seconds, *out)
	}

	if *calib {
		spec, ok := serveSpecs[*workload]
		if !ok {
			return fmt.Errorf("-calibrate needs a serve workload")
		}
		scratch, err := newScratch()
		if err != nil {
			return err
		}
		defer os.RemoveAll(scratch)
		return calibrate(spec, *seed, *seconds, scratch)
	}

	res, err := runWorkload(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	if !res.correct() {
		for _, g := range res.gateErrs {
			fmt.Fprintln(os.Stderr, "correctness gate:", g)
		}
		return fmt.Errorf("correctness gate failed (%d of %d operations failed, %d checks failed); metrics withheld",
			res.failed, res.attempted, len(res.gateErrs))
	}
	return emit(bf, res, *trace == 1, os.Stdout)
}

// runWorkload runs one workload in a scratch directory of its own and
// removes it afterwards.
func runWorkload(name string, seed uint64, seconds float64, traced bool) (*result, error) {
	scratch, err := newScratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	if spec, ok := sweepSpecs[name]; ok {
		return runSweep(spec, seed, seconds, traced, scratch)
	}
	if spec, ok := serveSpecs[name]; ok {
		return runServe(spec, seed, seconds, traced, scratch)
	}
	return nil, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(workloadNames(), ", "))
}

// newScratch makes a directory of this process's own under .bench_build/tmp.
func newScratch() (string, error) {
	scratch := filepath.Join(".bench_build", "tmp", "run-"+strconv.Itoa(os.Getpid())+"-"+strconv.FormatInt(time.Now().UnixNano(), 36))
	return scratch, os.MkdirAll(scratch, 0o755)
}

// spanPath is where a traced run's span file goes.
func spanPath(workload string) string {
	return filepath.Join(outDir, workload+".spans.json")
}

// outDir is where span files go: beside the build, outside the benchmark's
// own directory, which holds only what is committed. Tests point it at a
// temporary directory.
var outDir = filepath.Join(".bench_build", "out")

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS returns freed memory to the system and restarts the
// kernel's resident-set high-water mark, so that the next peakRSSMiB reads
// the peak since this call. Where the kernel does not offer the reset, the
// mark keeps counting from process start.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
