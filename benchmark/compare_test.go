package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Values from Python: statistics.quantiles(v, n=4).
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5.0, 9.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 9}, [3]float64{4.0, 7.0, 10.0}},
		{[]float64{2.5, 3.1, 2.9, 3.0, 2.7, 3.3, 2.8, 3.2, 2.6, 3.4, 9.9}, [3]float64{2.7, 3.0, 3.3}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.v, q1, q2, q3, c.want)
				break
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"same", steady, steady, lower, "within"},
		{"slower latency", steady, []float64{115, 116, 114, 115, 117}, lower, "worse"},
		{"faster latency", steady, []float64{80, 81, 79, 80, 82}, lower, "within"},
		{"lower throughput", steady, []float64{85, 86, 84, 85, 87}, higher, "worse"},
		{"higher throughput", steady, []float64{115, 116, 114, 115, 117}, higher, "within"},
		{"inside the bound", steady, []float64{108, 109, 107, 108, 110}, lower, "within"},
		{"spread wider than the bound", steady, []float64{80, 100, 120, 90, 130}, lower, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// A set that lacks a whole workload × metric row must not pass.
func TestCompareMissingRowIsUnresolved(t *testing.T) {
	bf := &benchmarkFile{EndToEnd: []metricDef{{Name: "latency", Unit: "us", Better: "lower", Bound: 0.10}}}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w1"}, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w2"})
	write := func(name string, workloads ...string) string {
		var set runSet
		for _, w := range workloads {
			for _, v := range []float64{100, 101, 99} {
				set.Runs = append(set.Runs, setRun{Workload: w, Metrics: map[string]float64{"latency": v}})
			}
		}
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	full, partial := write("a.json", "w1", "w2"), write("b.json", "w1")
	var out bytes.Buffer
	if err := compareSets(bf, full, full, &out); err != nil {
		t.Errorf("identical complete sets: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareSets(bf, full, partial, &out); err == nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a set lacking w2 passed: err %v\n%s", err, out.String())
	}
}
