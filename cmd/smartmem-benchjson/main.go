// Command smartmem-benchjson converts `go test -bench` text output (read
// from stdin or the files given as arguments) into machine-readable JSON,
// one record per benchmark result line. `make bench` uses it to write
// bench-out/BENCH.json, which `make bench-gate` holds against the committed
// BENCH.json baseline.
//
// Names carry no GOMAXPROCS suffix (see internal/benchfmt), so a baseline
// and a run taken on different CPU counts compare row for row.
//
// Output shape:
//
//	{
//	  "benchmarks": [
//	    {"name": "BenchmarkKernelPingPong", "iterations": 45916718,
//	     "metrics": {"ns/op": 58.5, "B/op": 32, "allocs/op": 1}},
//	    ...
//	  ]
//	}
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"smartmem/internal/benchfmt"
)

func run(args []string, in io.Reader, out io.Writer) error {
	var rep benchfmt.Report
	if len(args) == 0 {
		if err := benchfmt.Parse(in, &rep); err != nil {
			return err
		}
	}
	for _, path := range args {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = benchfmt.Parse(f, &rep)
		f.Close()
		if err != nil {
			return err
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smartmem-benchjson:", err)
		os.Exit(1)
	}
}
