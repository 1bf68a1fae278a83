package main

import (
	"math"
	"sort"
)

// minAbove is the number of samples that must lie above a tail
// percentile before it is reported; with fewer, the "percentile" is just
// one of the few slowest samples.
const minAbove = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and
// whether it is reportable: at least minAbove samples lie above it. The
// median is always reportable when xs is non-empty.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	idx = min(max(idx, 0), len(s)-1)
	above := len(s) - 1 - idx
	return s[idx], p <= 0.5 || above >= minAbove
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
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

// tally counts attempted operations and the ways they fail. Every
// refusal (HTTP 429), error and failed output check is a failed
// operation; a failed check additionally marks the run incorrect.
type tally struct {
	attempted   int
	errors      int
	refused     int
	checkFailed int
}

// failed is the number of failed operations.
func (t tally) failed() int { return t.errors + t.refused + t.checkFailed }

// failShare is failed operations over attempted ones.
func (t tally) failShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}
