package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: Summarize must sort
	}
	return xs
}

func TestSummarizeQuartiles(t *testing.T) {
	s := Summarize(seq(100))
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if s.N != 100 || !near(s.Q1, 25.75) || !near(s.Median, 50.5) || !near(s.Q3, 75.25) || !near(s.P90, 90.1) ||
		s.P90Beyond != 10 || !s.P90Reportable {
		t.Fatalf("Summarize(1..100) = %+v, want quartiles 25.75/50.5/75.25 and p90 90.1 with 10 beyond", s)
	}
	if s := Summarize([]float64{7}); s.Median != 7 || s.Q1 != 7 || s.P90 != 7 || s.N != 1 {
		t.Fatalf("Summarize([7]) = %+v", s)
	}
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero", s)
	}
}

// TestSummarizeBeyondRule pins the "at least ten samples beyond" rule
// for the 90th percentile.
func TestSummarizeBeyondRule(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		beyond     int
		reportable bool
	}{
		{seq(100), 10, true},
		{seq(99), 10, true},
		{seq(91), 9, false},
		{seq(50), 5, false},
		{seq(10), 1, false},
	} {
		s := Summarize(c.xs)
		if s.P90Beyond != c.beyond || s.P90Reportable != c.reportable {
			t.Errorf("n=%d: beyond=%d reportable=%v, want %d and %v", len(c.xs), s.P90Beyond, s.P90Reportable, c.beyond, c.reportable)
		}
	}
	// Ties at the percentile do not lie beyond it.
	tied := make([]float64, 200)
	for i := range tied {
		tied[i] = 3
	}
	if s := Summarize(tied); s.P90Beyond != 0 || s.P90Reportable || s.P90 != 3 {
		t.Errorf("200 equal samples: %+v, want p90=3 with none beyond", s)
	}
	if s := Summarize(append(seq(100), math.Inf(1))); !s.P90Reportable || s.P90 != 91 || s.P90Beyond != 10 {
		t.Errorf("101 samples: %+v", s)
	}
}
