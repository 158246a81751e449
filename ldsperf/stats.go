package main

import (
	"math"
	"slices"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks; xs need not be sorted and is not
// modified. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0: a per-op or per-call figure
// over a phase that had no ops or calls reads as no work, not as NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// nsToMs converts nanosecond samples to milliseconds.
func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
