package resilience

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"
)

// Tracker keeps per-key latency health: an exponentially weighted moving
// average plus an EWMA of the absolute deviation, the classic cheap
// substitute for a latency quantile (mean + k*deviation approximates a
// high percentile without histograms). Keys are free-form — replica
// names, device names, "stage/device" pairs — so one tracker can serve
// storage, flow and sched at once. All methods are safe for concurrent
// use; a nil *Tracker is a valid no-op tracker.
type Tracker struct {
	mu    sync.Mutex
	alpha float64
	min   int
	stats map[string]*healthStat
}

type healthStat struct {
	ewma    float64 // nanoseconds
	dev     float64 // EWMA of |sample - ewma|, nanoseconds
	samples int64
	// strikes counts integrity failures (checksum mismatches, lost
	// replicas) charged against the key and not yet cleared by a
	// repair. Any positive count demotes the key below every healthy
	// key in Rank: latency history says nothing about a replica that
	// returns wrong bytes.
	strikes int64
}

// NewTracker returns a tracker whose EWMAs move by alpha per sample
// (clamped into (0, 1]) and whose estimates are reported only after
// minSamples observations per key.
func NewTracker(alpha float64, minSamples int) *Tracker {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	if minSamples < 1 {
		minSamples = 1
	}
	return &Tracker{alpha: alpha, min: minSamples, stats: make(map[string]*healthStat)}
}

// Observe folds one completed operation's latency into key's stats.
func (t *Tracker) Observe(key string, d time.Duration) {
	if t == nil || d < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats[key]
	if st == nil {
		st = &healthStat{}
		t.stats[key] = st
	}
	x := float64(d)
	if st.samples == 0 {
		st.ewma = x
	} else {
		diff := x - st.ewma
		if diff < 0 {
			diff = -diff
		}
		st.dev += t.alpha * (diff - st.dev)
		st.ewma += t.alpha * (x - st.ewma)
	}
	st.samples++
}

// Latency reports key's EWMA latency and whether enough samples back it.
func (t *Tracker) Latency(key string) (time.Duration, bool) {
	return t.sampled(key, func(st *healthStat) float64 { return st.ewma })
}

// Threshold reports ewma + k*deviation for key — the hedge/straggler
// trigger — and whether enough samples back it.
func (t *Tracker) Threshold(key string, k float64) (time.Duration, bool) {
	return t.sampled(key, func(st *healthStat) float64 { return st.ewma + k*st.dev })
}

// Deviation reports key's EWMA absolute deviation and whether enough
// samples back it.
func (t *Tracker) Deviation(key string) (time.Duration, bool) {
	return t.sampled(key, func(st *healthStat) float64 { return st.dev })
}

// sampled reports f of key's statistics, in nanoseconds, and whether
// enough samples back them; a nil tracker has none.
func (t *Tracker) sampled(key string, f func(*healthStat) float64) (time.Duration, bool) {
	if t == nil {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats[key]
	if st == nil || st.samples < int64(t.min) {
		return 0, false
	}
	return time.Duration(f(st)), true
}

// Samples reports how many observations key has accumulated.
func (t *Tracker) Samples(key string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats[key]
	if st == nil {
		return 0
	}
	return st.samples
}

// Keys returns every tracked key in sorted order, for stable export
// into metric series.
func (t *Tracker) Keys() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.stats))
	for k := range t.stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MarkCorrupt charges one integrity strike against key: a read from it
// returned bytes that failed verification, or its data is known lost.
// Struck keys sort after every clean key in Rank until ClearCorrupt —
// latency ranking cannot be allowed to keep steering reads at a replica
// that serves fast garbage.
func (t *Tracker) MarkCorrupt(key string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats[key]
	if st == nil {
		st = &healthStat{}
		t.stats[key] = st
	}
	st.strikes++
}

// ClearCorrupt forgives key's integrity strikes — called after a repair
// write-back or re-replication restores known-good bytes.
func (t *Tracker) ClearCorrupt(key string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.stats[key]; st != nil {
		st.strikes = 0
	}
}

// CorruptStrikes reports key's uncleared integrity strikes.
func (t *Tracker) CorruptStrikes(key string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.stats[key]; st != nil {
		return st.strikes
	}
	return 0
}

// Rank orders keys by ascending EWMA latency: healthiest first. Keys
// without enough samples keep their incoming relative order and sort
// before sampled keys, so cold replicas are probed first and the
// ordering is deterministic from the first read. Keys with uncleared
// integrity strikes sort after everything else regardless of latency: a
// corrupt replica must stop winning reads and hedges until it is
// repaired. The slice is sorted in place and returned.
func (t *Tracker) Rank(keys []string) []string {
	return RankBy(t, keys, func(k string) string { return k })
}

// RankBy is Rank over items, each tracked under key(item): a caller
// that holds indices ranks them without building their keys' slice.
func RankBy[T any](t *Tracker, items []T, key func(T) string) []T {
	if t == nil {
		return items
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// class is 0 for a cold key, 1 for a sampled one, plus 2 if struck.
	class := func(st *healthStat) (c int) {
		if st != nil && st.strikes > 0 {
			c = 2
		}
		if st != nil && st.samples >= int64(t.min) {
			c++
		}
		return c
	}
	slices.SortStableFunc(items, func(a, b T) int {
		sa, sb := t.stats[key(a)], t.stats[key(b)]
		ca, cb := class(sa), class(sb)
		if ca != cb || ca&1 == 0 {
			return cmp.Compare(ca, cb) // cold keys keep their incoming order
		}
		return cmp.Compare(sa.ewma, sb.ewma)
	})
	return items
}
