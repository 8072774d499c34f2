package main

import (
	"math"
	"slices"
	"sort"
)

// latencyWindows groups open-loop latency samples into fixed windows by the
// op's intended send time. The reported p50 is the quiet level: the value a
// tenth of the way up the windows' own medians. The reported tail is the
// tail percentile of the samples of the quiet windows, those whose median is
// at or below that level, taken together.
//
// Why a low quantile over windows and not the median: the virtual machines
// this runs on have interference episodes that last seconds to minutes and
// raise every percentile by a tenth to a half while they last. They cover
// anything from none to nearly all of a run, so the median over windows
// lands in the quiet level on one run and in the disturbed one on the next
// (a spread of 0.6 was measured on an unchanged commit). The lowest decile
// reads the quiet level as long as a tenth of the windows are quiet, and a
// slower program moves the quiet level too. What it cannot see is a change
// that disturbs fewer than nine tenths of the windows, such as a periodic
// compaction stall; loadgen.stall_windows, loadgen.over_limit_share and the
// whole-run p99.9 and maximum are reported for that.
//
// The tail is taken over the quiet windows' pooled samples and not as a low
// quantile of the windows' own tails: a window holds few samples beyond its
// tail percentile, and the lowest of many such estimates is mostly luck.
type latencyWindows struct {
	width   int64     // window length, ns
	samples [][]int64 // per window, latency in ns
}

func newLatencyWindows(width, span int64) *latencyWindows {
	n := int((span + width - 1) / width)
	return &latencyWindows{width: width, samples: make([][]int64, n)}
}

// Add records one latency for an op intended at offset `at`.
func (w *latencyWindows) Add(at, latency int64) {
	i := int(at / w.width)
	if i >= len(w.samples) {
		i = len(w.samples) - 1
	}
	w.samples[i] = append(w.samples[i], latency)
}

// Merge folds another set of windows (one connection's) into w.
func (w *latencyWindows) Merge(o *latencyWindows) {
	for i, s := range o.samples {
		w.samples[i] = append(w.samples[i], s...)
	}
}

// quantile is the nearest-rank q-quantile of sorted values: the smallest
// with at least q·n values at or below it (0 if there are none). Every
// reduction of the benchmark's own uses it: percentiles of latencies,
// medians over set-ups and passes, the quiet level (q = 0.1) and the upper
// quartile over windows. compare.go's quartiles is the one exception,
// because it has to give what the driver's Python gives.
func quantile[T int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1 // 0.8 × 50 is a hair over 40 in floating point
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// sortedCopy returns v's values in ascending order, leaving v as it is.
func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const minBeyond = 10

// supports reports whether n samples leave at least minBeyond beyond q.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9 // 50 × (1 − 0.8) is a hair under 10 in floating point
}

// windowStats is what one run's windows reduce to.
type windowStats struct {
	P50          float64 // quiet level of the windows' medians, ns
	Tail         float64 // tail percentile of the quiet windows' samples, ns
	Windows      int     // windows that supported the tail percentile
	QuietSamples int     // samples the tail was taken from
	Samples      int
	P99, P999    int64   // whole-run, ns
	Max          int64   // whole-run, ns
	Stalls       int     // windows whose p50 exceeded stallFactor × P50
	OverLimit    float64 // share of samples above the latency limit
}

// stallFactor marks a window as disturbed when its median is this many times
// the quiet level's.
const stallFactor = 1.5

// Reduce computes the run's statistics. tailQ is the tail percentile (0.99);
// a window with fewer than minBeyond samples beyond it is left out. limit is
// the latency limit in ns.
func (w *latencyWindows) Reduce(tailQ float64, limit int64) windowStats {
	var st windowStats
	var all []int64
	var medians []float64
	var counted [][]int64
	for _, s := range w.samples {
		slices.Sort(s)
		all = append(all, s...)
		if !supports(len(s), tailQ) {
			continue // a short (final) or starved window cannot carry the tail
		}
		counted = append(counted, s)
		medians = append(medians, float64(quantile(s, 0.50)))
	}
	st.Windows = len(counted)
	st.Samples = len(all)
	st.P50 = quantile(sortedCopy(medians), 0.10)
	var quiet []int64
	for i, m := range medians {
		if m <= st.P50 {
			quiet = append(quiet, counted[i]...)
		}
		if m > stallFactor*st.P50 {
			st.Stalls++
		}
	}
	slices.Sort(quiet)
	st.QuietSamples = len(quiet)
	st.Tail = float64(quantile(quiet, tailQ))
	slices.Sort(all)
	if len(all) > 0 {
		st.Max = all[len(all)-1]
		st.P99 = quantile(all, 0.99)
		st.P999 = quantile(all, 0.999)
		over := len(all) - sort.Search(len(all), func(i int) bool { return all[i] > limit })
		st.OverLimit = float64(over) / float64(len(all))
	}
	return st
}
