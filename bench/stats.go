package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, or NaN for an empty slice. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// tailPercentile returns the highest of p99, p95 and p90 that has at least
// tailSamples samples beyond it, and which one it is; ok is false when even
// p90 has too few samples behind it.
func tailPercentile(xs []float64) (value, p float64, ok bool) {
	for _, p := range []float64{99, 95, 90} {
		if float64(len(xs))*(100-p)/100 >= tailSamples {
			return percentile(xs, p), p, true
		}
	}
	return 0, 0, false
}

// selfTime is a layer's self time from the p50s of two adjacent entry
// points: the outer one's p50 minus the inner one's.
func selfTime(outer, inner []float64) float64 {
	return median(outer) - median(inner)
}

// spread is the distance between the largest and smallest value as a share
// of their median; 0 for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
