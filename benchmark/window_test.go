package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// oracleQuantile is an independent nearest-rank quantile: the smallest value
// with at least q·n values at or below it.
func oracleQuantile[T int64 | float64](v []T, q float64) T {
	s := append([]T(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	need := q * float64(len(s))
	for i, x := range s {
		if float64(i+1) >= need-1e-9 {
			return x
		}
	}
	return s[len(s)-1]
}

func TestWindowsMatchSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const width, span = 1000, 10_000
	w := newLatencyWindows(width, span)
	parts := []*latencyWindows{newLatencyWindows(width, span), newLatencyWindows(width, span)}
	byWindow := make([][]int64, span/width)
	for i := 0; i < 40_000; i++ {
		at := rng.Int64N(span)
		// Window 3 gets too few samples to carry a p99.
		if at/width == 3 && rng.IntN(50) != 0 {
			continue
		}
		lat := int64(rng.ExpFloat64()*1000) + at/width*10
		parts[i%2].Add(at, lat)
		byWindow[at/width] = append(byWindow[at/width], lat)
	}
	for _, p := range parts {
		w.Merge(p)
	}
	st := w.Reduce(0.99, 5000)

	var want50 []float64
	var all []int64
	var counted [][]int64
	for _, s := range byWindow {
		all = append(all, s...)
		if float64(len(s))*0.01 < minBeyond {
			continue
		}
		counted = append(counted, s)
		want50 = append(want50, float64(oracleQuantile(s, 0.5)))
	}
	if st.Windows != len(counted) || st.Windows != len(byWindow)-1 {
		t.Fatalf("windows carrying a p99: got %d, oracle %d, want all but the starved one of %d", st.Windows, len(counted), len(byWindow))
	}
	quietP50 := oracleQuantile(want50, 0.10)
	var quiet []int64
	for i, s := range counted {
		if want50[i] <= quietP50 {
			quiet = append(quiet, s...)
		}
	}
	if len(quiet) == 0 || len(quiet) == len(all) {
		t.Fatalf("oracle pooled %d of %d samples as quiet", len(quiet), len(all))
	}
	if st.P50 != quietP50 || st.QuietSamples != len(quiet) || st.Tail != float64(oracleQuantile(quiet, 0.99)) {
		t.Errorf("quiet level: got p50 %v, p99 %v of %d samples; oracle %v, %v of %d",
			st.P50, st.Tail, st.QuietSamples, quietP50, oracleQuantile(quiet, 0.99), len(quiet))
	}
	if st.Samples != len(all) || st.P999 != oracleQuantile(all, 0.999) || st.Max != oracleQuantile(all, 1) {
		t.Errorf("whole run: got n %d p99.9 %d max %d, oracle %d %d %d", st.Samples, st.P999, st.Max, len(all), oracleQuantile(all, 0.999), oracleQuantile(all, 1))
	}
	over := 0
	for _, x := range all {
		if x > 5000 {
			over++
		}
	}
	if math.Abs(st.OverLimit-float64(over)/float64(len(all))) > 1e-12 {
		t.Errorf("over-limit share: got %v, oracle %v", st.OverLimit, float64(over)/float64(len(all)))
	}
}

func TestWindowsCountDisturbedWindows(t *testing.T) {
	w := newLatencyWindows(10, 40)
	for win, level := range []int64{100, 100, 100, 300} {
		for i := 0; i < 2000; i++ {
			w.Add(int64(win)*10, level)
		}
	}
	st := w.Reduce(0.99, 1000)
	if st.P50 != 100 || st.Stalls != 1 {
		t.Errorf("got quiet level %v and %d disturbed windows, want 100 and 1", st.P50, st.Stalls)
	}
}

func TestLateSampleLandsInLastWindow(t *testing.T) {
	w := newLatencyWindows(10, 25) // 3 windows, the last one short
	w.Add(24, 1)
	w.Add(1000, 2) // an op intended after the span (cannot happen, must not panic)
	if len(w.samples) != 3 || len(w.samples[2]) != 2 {
		t.Errorf("windows: %v", w.samples)
	}
}
