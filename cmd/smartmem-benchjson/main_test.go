package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"smartmem/internal/benchfmt"
)

const sample = `goos: linux
goarch: amd64
pkg: smartmem/internal/sim
BenchmarkKernelPingPong 	45916718	        58.50 ns/op	      32 B/op	       1 allocs/op
BenchmarkRemoteTier/remote-batch-4     	    2000	      4016 ns/op	         0.2181 round-trips/op
PASS
ok  	smartmem/internal/sim	8.057s
`

func TestParseBenchOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var rep benchfmt.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b0 := rep.Benchmarks[0]
	if b0.Name != "BenchmarkKernelPingPong" || b0.Iterations != 45916718 {
		t.Errorf("first record = %+v", b0)
	}
	if b0.Metrics["ns/op"] != 58.5 || b0.Metrics["allocs/op"] != 1 {
		t.Errorf("metrics = %v", b0.Metrics)
	}
	b1 := rep.Benchmarks[1]
	if b1.Name != "BenchmarkRemoteTier/remote-batch-4" || b1.Metrics["round-trips/op"] != 0.2181 {
		t.Errorf("second record = %+v", b1)
	}
}

func TestNonBenchLinesIgnored(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader("PASS\nok x 1s\n"), &out); err != nil {
		t.Fatal(err)
	}
	var rep benchfmt.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from non-bench input", len(rep.Benchmarks))
	}
}

// With GOMAXPROCS > 1 `go test` appends "-N" to every name of a run; the
// records drop it, but keep a "-N" that belongs to the name itself.
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
		{twoCPU, []string{"BenchmarkBackendPutGetFlush", "BenchmarkRemoteTier/remote-batch-4", "BenchmarkCondPingPong"}},
		{oneCPU, []string{"BenchmarkBackendParallel/shards-1", "BenchmarkBackendParallel/shards-8"}},
	} {
		var out bytes.Buffer
		if err := run(nil, strings.NewReader(tc.in), &out); err != nil {
			t.Fatal(err)
		}
		var rep benchfmt.Report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, b := range rep.Benchmarks {
			got = append(got, b.Name)
		}
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("names = %q, want %q", got, tc.want)
		}
	}
}
