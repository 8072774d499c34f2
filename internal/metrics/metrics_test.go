package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("vm1")
	if s.Name() != "vm1" || s.Len() != 0 {
		t.Fatalf("fresh series: %q len %d", s.Name(), s.Len())
	}
	if (s.Last() != Point{}) {
		t.Error("empty Last not zero")
	}
	s.Add(0, 10)
	s.Add(1, 30)
	s.Add(2, 20)
	if s.Len() != 3 || s.At(1).V != 30 {
		t.Errorf("series contents wrong: %+v", s.Points())
	}
	if s.Last() != (Point{T: 2, V: 20}) {
		t.Errorf("Last = %+v", s.Last())
	}
	if s.Max() != 30 {
		t.Errorf("Max = %v", s.Max())
	}
	if s.Mean() != 20 {
		t.Errorf("Mean = %v", s.Mean())
	}
}

func TestSeriesTimeRegressionPanics(t *testing.T) {
	s := NewSeries("x")
	s.Add(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("time regression did not panic")
		}
	}()
	s.Add(4, 1)
}

// AddSeries is the decoder's entry: what Add panics on, it reports, and it
// leaves the set as it was.
func TestSetAddSeries(t *testing.T) {
	st := NewSet()
	if err := st.AddSeries("a", []Point{{1, 10}, {1, 11}, {3, 30}}); err != nil {
		t.Fatal(err)
	}
	if err := st.AddSeries("empty", nil); err != nil {
		t.Fatal(err)
	}
	if got := st.Names(); len(got) != 2 || got[0] != "a" || got[1] != "empty" {
		t.Errorf("names = %v", got)
	}
	if s := st.Get("a"); s.Len() != 3 || s.ValueAt(2) != 11 {
		t.Errorf("series a = %v", s.Points())
	}
	if err := st.AddSeries("a", nil); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := st.AddSeries("b", []Point{{2, 0}, {1, 0}}); err == nil {
		t.Error("time regression accepted")
	}
	if st.Has("b") || len(st.Names()) != 2 {
		t.Errorf("rejected series left in the set: %v", st.Names())
	}
}

func TestSeriesValueAtStepInterpolation(t *testing.T) {
	s := NewSeries("x")
	s.Add(1, 10)
	s.Add(3, 30)
	cases := []struct{ t, want float64 }{
		{0.5, 0}, {1, 10}, {2.9, 10}, {3, 30}, {100, 30},
	}
	for _, c := range cases {
		if got := s.ValueAt(c.t); got != c.want {
			t.Errorf("ValueAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestSetOrderAndCSV(t *testing.T) {
	st := NewSet()
	st.Get("b").Add(0, 1)
	st.Get("a").Add(0, 2)
	st.Get("b").Add(1, 3)
	names := st.Names()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Errorf("names = %v, want insertion order [b a]", names)
	}
	if !st.Has("a") || st.Has("zz") {
		t.Error("Has misbehaves")
	}
	var sb strings.Builder
	if err := st.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "series,t_seconds,value\nb,0.000,1\nb,1.000,3\na,0.000,2\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{10, 12, 14})
	if s.N != 3 || s.Mean != 12 || s.Min != 10 || s.Max != 14 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-2) > 1e-9 {
		t.Errorf("std = %v, want 2 (sample std)", s.Std)
	}
	if len(s.Values()) != 3 {
		t.Error("raw values lost")
	}
	if !strings.Contains(s.String(), "12.00±2.00") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if s := Summarize([]float64{5}); s.Std != 0 || s.Mean != 5 {
		t.Errorf("singleton summary = %+v", s)
	}
}

func TestSpeedup(t *testing.T) {
	fast := Summarize([]float64{65})
	slow := Summarize([]float64{100})
	if got := Speedup(fast, slow); math.Abs(got-0.35) > 1e-9 {
		t.Errorf("speedup = %v, want 0.35", got)
	}
	if got := Speedup(slow, fast); got >= 0 {
		t.Errorf("inverse speedup = %v, want negative", got)
	}
	if Speedup(fast, Summary{}) != 0 {
		t.Error("zero-base speedup not 0")
	}
}

// Property: mean is within [min, max] and std is non-negative.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				vals = append(vals, v)
			}
		}
		s := Summarize(vals)
		if s.N == 0 {
			return true
		}
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
