// Package benchfmt reads `go test -bench` text output into the records of
// BENCH.json: the document cmd/smartmem-benchjson writes and
// cmd/smartmem-benchgate holds against the committed baseline.
package benchfmt

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the BENCH.json document.
type Report struct {
	Benchmarks []Result `json:"benchmarks"`
}

// parseLine decodes one `BenchmarkX  N  v1 unit1  v2 unit2 ...` line.
func parseLine(line string) (Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Result{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// stripProcs drops the GOMAXPROCS suffix from one package run's results:
// `go test` appends "-N" to every benchmark name when GOMAXPROCS is N > 1.
// A name may end in "-N" on its own (BenchmarkRemoteTier/remote-batch-4),
// so the suffix is taken as the run's only when every result ends in the
// same one.
func stripProcs(block []Result) {
	var suffix string
	for i, r := range block {
		j := strings.LastIndexByte(r.Name, '-')
		if _, err := strconv.Atoi(r.Name[j+1:]); j < 0 || err != nil || (i > 0 && r.Name[j:] != suffix) {
			return
		}
		suffix = r.Name[j:]
	}
	for i := range block {
		block[i].Name = strings.TrimSuffix(block[i].Name, suffix)
	}
}

// Parse appends every benchmark result read from rd to rep, with the
// GOMAXPROCS suffix stripped, so a run taken on one CPU count gates against
// a baseline taken on another. A package run ends at its "PASS" or "ok"
// line, at the next "pkg:" header, or at the end of rd. The rows of one
// name (a run with -count N) fold into one record at the first row's place,
// holding the median of each metric and of the iteration counts.
func Parse(rd io.Reader, rep *Report) error {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := len(rep.Benchmarks)
	start := first
	flush := func() {
		stripProcs(rep.Benchmarks[start:])
		start = len(rep.Benchmarks)
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if r, ok := parseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, r)
		} else if strings.HasPrefix(line, "pkg:") || strings.HasPrefix(line, "ok") || line == "PASS" {
			flush()
		}
	}
	flush()
	rep.Benchmarks = append(rep.Benchmarks[:first], fold(rep.Benchmarks[first:])...)
	return sc.Err()
}

// fold merges the rows of each name into one record, in first-seen order.
func fold(rows []Result) []Result {
	var names []string
	byName := map[string][]Result{}
	for _, r := range rows {
		if _, seen := byName[r.Name]; !seen {
			names = append(names, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	folded := make([]Result, 0, len(names))
	for _, name := range names {
		group := byName[name]
		if len(group) == 1 {
			folded = append(folded, group[0])
			continue
		}
		iters := make([]float64, len(group))
		values := map[string][]float64{}
		for i, r := range group {
			iters[i] = float64(r.Iterations)
			for unit, v := range r.Metrics {
				values[unit] = append(values[unit], v)
			}
		}
		r := Result{Name: name, Iterations: int64(median(iters)), Metrics: map[string]float64{}}
		for unit, vs := range values {
			r.Metrics[unit] = median(vs)
		}
		folded = append(folded, r)
	}
	return folded
}

// median returns the middle value of vs, or the mean of the middle two;
// it sorts vs.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
