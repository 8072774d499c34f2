// Package metrics provides the small time-series and summary-statistics
// toolkit used to record and report experiment results: per-VM tmem usage
// over time (the paper's Figures 4, 6, 8, 10) and running-time aggregates
// across repetitions (Figures 3, 5, 7, 9 report means and standard
// deviations over five runs).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Point is one time-series sample.
type Point struct {
	T float64 // seconds of virtual time
	V float64
}

// Series is an append-only named time series.
type Series struct {
	name   string
	points []Point
}

// NewSeries creates an empty series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Add appends a sample. Timestamps should be non-decreasing; Add panics on
// regression because that always indicates a harness bug.
func (s *Series) Add(t, v float64) {
	if n := len(s.points); n > 0 && t < s.points[n-1].T {
		panic(fmt.Sprintf("metrics: series %q time regression: %v after %v", s.name, t, s.points[n-1].T))
	}
	s.points = append(s.points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// At returns the i-th sample.
func (s *Series) At(i int) Point { return s.points[i] }

// Points returns the backing samples (callers must not mutate).
func (s *Series) Points() []Point { return s.points }

// Last returns the most recent sample (zero Point when empty).
func (s *Series) Last() Point {
	if len(s.points) == 0 {
		return Point{}
	}
	return s.points[len(s.points)-1]
}

// Max returns the maximum value (0 when empty).
func (s *Series) Max() float64 {
	max := 0.0
	for i, p := range s.points {
		if i == 0 || p.V > max {
			max = p.V
		}
	}
	return max
}

// Mean returns the arithmetic mean of values (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.points {
		sum += p.V
	}
	return sum / float64(len(s.points))
}

// ValueAt returns the value of the latest sample at or before time t
// (step interpolation), or 0 before the first sample.
func (s *Series) ValueAt(t float64) float64 {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.points[i-1].V
}

// Set is an ordered collection of named series.
type Set struct {
	order []string
	byKey map[string]*Series
}

// NewSet creates an empty set.
func NewSet() *Set { return &Set{byKey: make(map[string]*Series)} }

// Get returns the series with the given name, creating it if absent.
func (st *Set) Get(name string) *Series {
	if s, ok := st.byKey[name]; ok {
		return s
	}
	s := NewSeries(name)
	st.byKey[name] = s
	st.order = append(st.order, name)
	return s
}

// AddSeries appends a whole pre-recorded series in one step, taking
// ownership of pts — the bulk counterpart of Get + Add for decoders, which
// build the sample slice at its exact size. Samples from outside the
// program are not trusted: a duplicate name or a regressing timestamp is
// an error, where Add (fed by the live recorder) panics.
func (st *Set) AddSeries(name string, pts []Point) error {
	if _, dup := st.byKey[name]; dup {
		return fmt.Errorf("metrics: duplicate series %q", name)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T < pts[i-1].T {
			return fmt.Errorf("metrics: series %q time regression: %v after %v", name, pts[i].T, pts[i-1].T)
		}
	}
	st.byKey[name] = &Series{name: name, points: pts}
	st.order = append(st.order, name)
	return nil
}

// Names returns the series names in insertion order.
func (st *Set) Names() []string { return append([]string(nil), st.order...) }

// Has reports whether a series exists.
func (st *Set) Has(name string) bool { _, ok := st.byKey[name]; return ok }

// WriteCSV emits the set in long format: name,t,value — one row per
// sample, series in insertion order.
func (st *Set) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "series,t_seconds,value"); err != nil {
		return err
	}
	for _, name := range st.order {
		for _, p := range st.byKey[name].points {
			if _, err := fmt.Fprintf(w, "%s,%.3f,%g\n", name, p.T, p.V); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary aggregates repeated scalar measurements (e.g. five repetitions
// of a VM's running time).
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	valuesRecorded []float64
}

// Summarize computes a Summary over values. Std is the sample standard
// deviation (n−1 denominator), matching how the paper reports error bars;
// with fewer than two values Std is 0.
func Summarize(values []float64) Summary {
	s := Summary{N: len(values)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = values[0], values[0]
	sum := 0.0
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, v := range values {
			d := v - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	s.valuesRecorded = append([]float64(nil), values...)
	return s
}

// Values returns the raw measurements behind the summary.
func (s Summary) Values() []float64 { return s.valuesRecorded }

func (s Summary) String() string {
	return fmt.Sprintf("%.2f±%.2f (n=%d, min %.2f, max %.2f)", s.Mean, s.Std, s.N, s.Min, s.Max)
}

// Speedup returns how much faster "this" summary is than base, as a
// fraction of base (paper convention: "X runs faster than Y by P%" means
// (Y−X)/Y). Positive values mean s is faster (smaller) than base.
func Speedup(s, base Summary) float64 {
	if base.Mean == 0 {
		return 0
	}
	return (base.Mean - s.Mean) / base.Mean
}
