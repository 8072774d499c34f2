package benchfmt

import (
	"strings"
	"testing"
)

// A run with -count N prints N rows per benchmark; Parse keeps one record
// per name, in first-seen order, holding each metric's median (the mean of
// the middle two for an even count), with the GOMAXPROCS suffix stripped
// as for single rows.
func TestParseFoldsRepeatedRowsToMedian(t *testing.T) {
	const in = `pkg: smartmem/internal/hdr
BenchmarkHDRQuantile-2   	  100000	       554.0 ns/op	       0 allocs/op
BenchmarkHDRRecord-2     	  100000	        35.0 ns/op
BenchmarkHDRQuantile-2   	  100000	       931.0 ns/op	       0 allocs/op
BenchmarkHDRRecord-2     	  100000	        74.0 ns/op
BenchmarkHDRQuantile-2   	  100000	       560.0 ns/op	       2 allocs/op
BenchmarkHDRRecord-2     	  100000	        37.0 ns/op
BenchmarkHDRRecord-2     	  100000	        36.0 ns/op
BenchmarkHDRMerge-2      	    1000	      4000 ns/op
ok  	smartmem/internal/hdr	1.0s
`
	var rep Report
	if err := Parse(strings.NewReader(in), &rep); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name   string
		iters  int64
		ns     float64
		allocs float64
	}{
		{"BenchmarkHDRQuantile", 100000, 560, 0},
		{"BenchmarkHDRRecord", 100000, 36.5, 0},
		{"BenchmarkHDRMerge", 1000, 4000, 0},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("parsed %d records, want %d: %+v", len(rep.Benchmarks), len(want), rep.Benchmarks)
	}
	for i, w := range want {
		r := rep.Benchmarks[i]
		if r.Name != w.name || r.Iterations != w.iters || r.Metrics["ns/op"] != w.ns || r.Metrics["allocs/op"] != w.allocs {
			t.Errorf("record %d = %+v, want %s with %d iterations, %g ns/op, %g allocs/op", i, r, w.name, w.iters, w.ns, w.allocs)
		}
	}
}
