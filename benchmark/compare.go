package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// runSet is what -repeat writes and -compare reads: the end-to-end metrics
// of N runs of every workload, with the environment they ran in.
type runSet struct {
	Env     environment `json:"env"`
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []setRun    `json:"runs"`
}

type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

type setRun struct {
	Workload string             `json:"workload"`
	Metrics  map[string]float64 `json:"metrics"`
}

func currentEnv() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit}
}

// repeatRuns runs every workload n times, each in a process of its own (a
// process's peak RSS and learnt scheduling costs must not leak from one run
// into the next), and writes the set to out.
func repeatRuns(bf *benchmarkFile, n int, seed uint64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Env: currentEnv(), Seed: seed, Seconds: seconds}
	for _, w := range bf.Workloads {
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w\n%s", w.Name, i, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line struct {
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				return fmt.Errorf("%s run %d: %w", w.Name, i, err)
			}
			run := setRun{Workload: w.Name, Metrics: map[string]float64{}}
			for name, v := range line.Metrics {
				run.Metrics[name] = v.Value
			}
			set.Runs = append(set.Runs, run)
			fmt.Fprintf(os.Stderr, "%s run %d/%d done\n", w.Name, i+1, n)
		}
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// quartiles returns the three cut points Python's statistics.quantiles(v,
// n=4) gives (the default, exclusive method), which is what the driver
// computes spreads from.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside [0, 4] after clamping: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, q2)
}

func readSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

// verdict compares set b against set a on one metric of one workload.
//
//	unresolved  either set's own spread is wider than the bound
//	worse       b's median is worse than a's by more than the bound
//	within      otherwise
func verdict(a, b []float64, d metricDef) string {
	if spread(a) > d.Bound || spread(b) > d.Bound {
		return "unresolved"
	}
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worse := ratio(mb-ma, ma)
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return "worse"
	}
	return "within"
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians and quartiles, the bound, and the verdict. It returns an error if
// any row is worse or unresolved.
func compareSets(bf *benchmarkFile, pathA, pathB string, w io.Writer) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for _, s := range []struct {
		name string
		set  *runSet
	}{{"a", a}, {"b", b}} {
		fmt.Fprintf(bw, "%s: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %g s\n",
			s.name, s.set.Env.Commit, s.set.Env.Go, s.set.Env.NProc, s.set.Env.GOMAXPROCS, s.set.Seed, s.set.Seconds)
	}
	tw := tabwriter.NewWriter(bw, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta q1\ta median\ta q3\tb q1\tb median\tb q3\tb/a\tbound\tverdict\t")
	bad := 0
	for _, wl := range bf.Workloads {
		for _, d := range bf.EndToEnd {
			va, vb := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				// A set that lacks a whole row (written by another version
				// of the benchmark, or cut short) settles nothing about it.
				bad++
				fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\t\t\t\t%.0f%%\tunresolved (%d and %d values)\t\n",
					wl.Name, d.Name, d.Unit, 100*d.Bound, len(va), len(vb))
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			v := verdict(va, vb, d)
			if v != "within" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.3f\t%.0f%%\t%s\t\n",
				wl.Name, d.Name, d.Unit, a1, a2, a3, b1, b2, b3, ratio(b2, a2), 100*d.Bound, v)
		}
	}
	tw.Flush()
	if bad > 0 {
		bw.Flush()
		return fmt.Errorf("%d rows worse or unresolved", bad)
	}
	return nil
}
