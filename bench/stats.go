package main

import (
	"slices"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile returns the value at rank floor(q*n) of xs in ascending
// order, or 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to be more than one slow op's latency.
const tailBeyond = 10

// tailPercentile picks the highest percentile of sorted (ascending)
// that still has at least tailBeyond samples beyond it, and returns its
// value and the percentile. With too few samples for that it reports
// the median.
func tailPercentile(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := n - 1 - tailBeyond
	if i < n/2 {
		i = n / 2
	}
	return sorted[i], 100 * float64(i+1) / float64(n)
}

// blockSpreadPct is (max - min) / median of the block medians, in
// percent: how far the machine drifted inside one measured phase.
func blockSpreadPct(blockMedians []float64) float64 {
	if len(blockMedians) == 0 {
		return 0
	}
	mid := median(blockMedians)
	if mid == 0 {
		return 0
	}
	return 100 * (slices.Max(blockMedians) - slices.Min(blockMedians)) / mid
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
