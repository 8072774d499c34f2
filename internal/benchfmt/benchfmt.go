// Package benchfmt reads `go test -bench` text output into samples, every
// result line kept, for cmd/smartmem-benchgate to hold a change's runs
// against its base's.
package benchfmt

import (
	"bufio"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Samples maps a benchmark's name to its metrics: for each unit ("ns/op",
// "allocs/op", ...), the value of every result line read, in order.
type Samples map[string]map[string][]float64

// result is one benchmark line.
type result struct {
	name    string
	metrics map[string]float64
}

// parseLine decodes one `BenchmarkX  N  v1 unit1  v2 unit2 ...` line.
func parseLine(line string) (result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return result{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return result{}, false
	}
	r := result{name: fields[0], metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.metrics[fields[i+1]] = v
	}
	return r, true
}

// stripProcs drops the GOMAXPROCS suffix from one package run's results:
// `go test` appends "-N" to every benchmark name when GOMAXPROCS is N > 1.
// A name may end in "-N" on its own (BenchmarkRemoteTier/remote-batch-4),
// so the suffix is taken as the run's only when every result ends in the
// same one.
func stripProcs(block []result) {
	var suffix string
	for i, r := range block {
		j := strings.LastIndexByte(r.name, '-')
		if _, err := strconv.Atoi(r.name[j+1:]); j < 0 || err != nil || (i > 0 && r.name[j:] != suffix) {
			return
		}
		suffix = r.name[j:]
	}
	for i := range block {
		block[i].name = strings.TrimSuffix(block[i].name, suffix)
	}
}

// Parse adds every benchmark result read from rd to s, with the GOMAXPROCS
// suffix stripped, so runs taken on different CPU counts meet row for row.
// A package run ends at its "PASS" or "ok" line, at the next "pkg:" header,
// or at the end of rd. Repeated rows of one name (a run with -count N, or
// runs appended to one file) add one sample each.
func (s Samples) Parse(rd io.Reader) error {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var block []result
	flush := func() {
		stripProcs(block)
		for _, r := range block {
			row := s[r.name]
			if row == nil {
				row = map[string][]float64{}
				s[r.name] = row
			}
			for unit, v := range r.metrics {
				row[unit] = append(row[unit], v)
			}
		}
		block = block[:0]
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if r, ok := parseLine(line); ok {
			block = append(block, r)
		} else if strings.HasPrefix(line, "pkg:") || strings.HasPrefix(line, "ok") || line == "PASS" {
			flush()
		}
	}
	flush()
	return sc.Err()
}

// Quartiles returns the lower quartile, the median and the upper quartile
// of vs by the exclusive method, as Python's statistics.quantiles(vs, n=4)
// and benchmark/compare.go compute them: the quartile at rank p·(n+1),
// read on the line between the two nearest samples (and past the ends for
// n < 3). vs is not modified.
func Quartiles(vs []float64) (q1, median, q3 float64) {
	s := slices.Sorted(slices.Values(vs))
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(p float64) float64 {
		h := p * float64(len(s)+1)
		j := min(max(int(h), 1), len(s)-1)
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return cut(0.25), cut(0.5), cut(0.75)
}
