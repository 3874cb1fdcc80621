package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a tail percentile before
// it is reported as measured: fewer, and the "percentile" is one or two
// unlucky samples.
const minBeyond = 10

// Summary reduces one metric's samples to the figures every result
// carries: count, quartiles and the 90th percentile.
type Summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	P90    float64 `json:"p90"`
	// P90Beyond counts samples strictly greater than P90; P90Reportable
	// is true when that is at least minBeyond.
	P90Beyond     int  `json:"p90_beyond"`
	P90Reportable bool `json:"p90_reportable"`
}

// Summarize sorts a copy of xs and reduces it. An empty input yields the
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p90 := quantile(s, 0.9)
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > p90 })
	return Summary{
		N:             len(s),
		Q1:            quantile(s, 0.25),
		Median:        quantile(s, 0.5),
		Q3:            quantile(s, 0.75),
		P90:           p90,
		P90Beyond:     beyond,
		P90Reportable: beyond >= minBeyond,
	}
}

// quantile interpolates linearly between the closest ranks of sorted s
// (the "type 7" estimator).
func quantile(s []float64, q float64) float64 {
	h := q * float64(len(s)-1)
	lo := math.Floor(h)
	i := int(lo)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-lo)*(s[i+1]-s[i])
}
