package benchfmt

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

func parse(t *testing.T, in string) Samples {
	t.Helper()
	s := Samples{}
	if err := s.Parse(strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseBenchOutput(t *testing.T) {
	s := parse(t, `goos: linux
goarch: amd64
pkg: smartmem/internal/sim
BenchmarkKernelPingPong 	45916718	        58.50 ns/op	      32 B/op	       1 allocs/op
BenchmarkRemoteTier/remote-batch-4     	    2000	      4016 ns/op	         0.2181 round-trips/op
PASS
ok  	smartmem/internal/sim	8.057s
`)
	if len(s) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(s), s)
	}
	if m := s["BenchmarkKernelPingPong"]; !slices.Equal(m["ns/op"], []float64{58.5}) || !slices.Equal(m["allocs/op"], []float64{1}) {
		t.Errorf("BenchmarkKernelPingPong = %v", m)
	}
	if m := s["BenchmarkRemoteTier/remote-batch-4"]; !slices.Equal(m["round-trips/op"], []float64{0.2181}) {
		t.Errorf("BenchmarkRemoteTier/remote-batch-4 = %v", m)
	}
}

func TestNonBenchLinesIgnored(t *testing.T) {
	if s := parse(t, "PASS\nok x 1s\nBenchmarkBroken not-a-count 1 ns/op\n"); len(s) != 0 {
		t.Errorf("parsed %v from non-bench input", s)
	}
}

// With GOMAXPROCS > 1 `go test` appends "-N" to every name of a run; the
// rows drop it, but keep a "-N" that belongs to the name itself.
func TestProcsSuffixStripped(t *testing.T) {
	const twoCPU = `pkg: smartmem/internal/tmem
BenchmarkBackendPutGetFlush-2   	  100000	       151.0 ns/op	       0 allocs/op
BenchmarkRemoteTier/remote-batch-4-2   	   10000	      4016 ns/op
PASS
ok  	smartmem/internal/tmem	1.2s
pkg: smartmem/internal/sim
BenchmarkCondPingPong-2   	  100000	        40.0 ns/op
ok  	smartmem/internal/sim	0.1s
`
	const oneCPU = `pkg: smartmem/internal/tmem
BenchmarkBackendParallel/shards-1   	   10000	      2000 ns/op
BenchmarkBackendParallel/shards-8   	   10000	       900 ns/op
ok  	smartmem/internal/tmem	1.2s
`
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{twoCPU, []string{"BenchmarkBackendPutGetFlush", "BenchmarkCondPingPong", "BenchmarkRemoteTier/remote-batch-4"}},
		{oneCPU, []string{"BenchmarkBackendParallel/shards-1", "BenchmarkBackendParallel/shards-8"}},
	} {
		s := parse(t, tc.in)
		got := slices.Sorted(maps.Keys(s))
		if !slices.Equal(got, tc.want) {
			t.Errorf("names = %q, want %q", got, tc.want)
		}
	}
}

// Repeated rows of one name, from -count N or from runs appended to one
// file, fold into one row that keeps every sample in the order read.
func TestParseFoldsRepeatedRowsToMedian(t *testing.T) {
	s := parse(t, `pkg: smartmem/internal/hdr
BenchmarkHDRQuantile-2   	  100000	       554.0 ns/op	       0 allocs/op
BenchmarkHDRRecord-2     	  100000	        35.0 ns/op
BenchmarkHDRQuantile-2   	  100000	       931.0 ns/op	       0 allocs/op
BenchmarkHDRRecord-2     	  100000	        74.0 ns/op
ok  	smartmem/internal/hdr	1.0s
pkg: smartmem/internal/hdr
BenchmarkHDRQuantile-2   	  100000	       560.0 ns/op	       2 allocs/op
BenchmarkHDRRecord-2     	  100000	        37.0 ns/op
BenchmarkHDRRecord-2     	  100000	        36.0 ns/op
ok  	smartmem/internal/hdr	1.0s
`)
	for _, w := range []struct {
		name   string
		ns     []float64
		median float64
	}{
		{"BenchmarkHDRQuantile", []float64{554, 931, 560}, 560},
		{"BenchmarkHDRRecord", []float64{35, 74, 37, 36}, 36.5},
	} {
		ns := s[w.name]["ns/op"]
		if _, median, _ := Quartiles(ns); !slices.Equal(ns, w.ns) || median != w.median {
			t.Errorf("%s ns/op = %v (median %g), want %v (median %g)", w.name, ns, median, w.ns, w.median)
		}
	}
	if allocs := s["BenchmarkHDRQuantile"]["allocs/op"]; !slices.Equal(allocs, []float64{0, 0, 2}) {
		t.Errorf("BenchmarkHDRQuantile allocs/op = %v", allocs)
	}
	if len(s) != 2 {
		t.Errorf("parsed %d rows, want 2", len(s))
	}
}

// The quartile definition the gate's budgets rest on, pinned for the run
// counts it sees: the exclusive method of Python's statistics.quantiles.
func TestQuartilesPinned(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, [3]float64{7, 7, 7}},
		{[]float64{42}, [3]float64{42, 42, 42}},
	} {
		in := slices.Clone(c.vs)
		if q1, m, q3 := Quartiles(c.vs); [3]float64{q1, m, q3} != c.want || !slices.Equal(in, c.vs) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v, input left as is", in, q1, m, q3, c.want)
		}
	}
}
