package metrics

import (
	"math/bits"
	"sync/atomic"
)

// Histogram bucketing is HDR-style log-linear: values below 2^histSubBits
// land in exact unit buckets; above that, each power of two is split
// into 2^histSubBits linear sub-buckets, so the relative width of any
// bucket is at most 2^-histSubBits (1/128 ≈ 0.78%). Quantile returns a
// bucket's midpoint, halving the worst-case relative error again —
// comfortably inside the 1% bound E25 asserts against exact per-query
// aggregates.
const (
	histSubBits = 7
	histSubs    = 1 << histSubBits // sub-buckets per power of two
	// Exponents 0..histSubBits-1 collapse into the first exact range;
	// exponents histSubBits..62 each contribute histSubs buckets
	// (non-negative int64 values only; Observe clamps negatives to 0).
	histBuckets = histSubs + (63-histSubBits)*histSubs
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histSubs {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // position of the top bit, >= histSubBits
	sub := v >> (exp - histSubBits)  // top histSubBits+1 bits, in [histSubs, 2*histSubs)
	return (exp-histSubBits)*histSubs + int(sub)
}

// bucketMid returns the representative (midpoint) value for a bucket.
func bucketMid(i int) int64 {
	if i < histSubs {
		return int64(i)
	}
	exp := i/histSubs + histSubBits - 1
	sub := int64(i%histSubs) + histSubs
	lo := sub << (exp - histSubBits)
	width := int64(1) << (exp - histSubBits)
	return lo + width/2
}

// Histogram records int64 observations (latencies in nanoseconds by
// convention) cumulatively: a flat bucket array plus running count, sum
// and max so reads don't rescan empty buckets for totals. Every method
// is atomics-only. A nil *Histogram is a no-op.
type Histogram struct {
	buckets []int64 // accessed via atomic ops
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

func newHistogram() *Histogram {
	return &Histogram{buckets: make([]int64, histBuckets)}
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	atomic.AddInt64(&h.buckets[bucketIndex(v)], 1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the observation count.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observation (the true max, not a bucket
// bound — tracked separately).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile returns the p-quantile (p in [0,1]) by the nearest-rank
// method, reported as the containing bucket's midpoint (exact for
// values below 128). Empty histogram → 0.
func (h *Histogram) Quantile(p float64) int64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// Nearest rank: the same convention the experiments use on sorted
	// samples — index floor(p*n), clamped to the last element.
	rank := int64(p * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := range h.buckets {
		seen += atomic.LoadInt64(&h.buckets[i])
		if seen > rank {
			return bucketMid(i)
		}
	}
	return h.Max()
}
