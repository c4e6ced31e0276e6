package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Figures that a run measures over many groups of calls (passes,
// windows, chunks) are reported as the faster quartile of the groups'
// values, as the repository's bench-gate takes the minimum of several
// runs: interference from other work on a shared machine only ever
// slows a group down, so this is the value it moves least, while a
// change of the program moves every group.

// fastLatency is the lower quartile of per-group latencies.
func fastLatency(xs []float64) float64 { return quantile(xs, 0.25) }

// fastRate is the upper quartile of per-group rates.
func fastRate(xs []float64) float64 { return quantile(xs, 0.75) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// durMs converts a duration sample to milliseconds.
func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
