package core

import (
	"math/bits"

	"repro/internal/columnar"
	"repro/internal/plan"
)

// ComputeStats derives planner statistics from a loaded batch: exact
// distinct counts, integer min/max bounds, and average column widths.
// Engines call it at load time (statistics maintenance is an ingest-side
// task in both architectures). It is one pass per batch, not per segment:
// MergeStats sums distinct counts across loads, so counting per segment
// would change what the planner sees for a batch that spans several.
func ComputeStats(b *columnar.Batch) plan.TableStats {
	st := plan.StatsFromSchema(b.Schema())
	st.Rows = int64(b.NumRows())
	for c := 0; c < b.NumCols(); c++ {
		col := b.Col(c)
		hasNulls := col.HasNulls()
		switch col.Type() {
		case columnar.Int64:
			if lo, hi, ok := int64Bounds(col, hasNulls); ok {
				st.MinInt[c], st.MaxInt[c], st.IntBounds[c] = lo, hi, true
				st.Distinct[c] = distinctInt64s(col, hasNulls, lo, hi)
			}
		case columnar.String:
			distinct := make(map[string]struct{})
			var bytes int64
			for i, v := range col.Strings() {
				if hasNulls && col.IsNull(i) {
					continue
				}
				distinct[v] = struct{}{}
				bytes += int64(len(v)) + 16
			}
			st.Distinct[c] = int64(len(distinct))
			if n := int64(col.Len()); n > 0 {
				st.ColBytes[c] = bytes / n
				if st.ColBytes[c] == 0 {
					st.ColBytes[c] = 1
				}
			}
		case columnar.Float64:
			// Distinct tracking for floats is rarely useful; leave 0.
		case columnar.Bool:
			st.Distinct[c] = 2
		}
	}
	return st
}

// int64Bounds is the smallest and largest non-NULL value of an Int64
// vector, and false when it has none.
func int64Bounds(col *columnar.Vector, hasNulls bool) (lo, hi int64, ok bool) {
	for i, v := range col.Int64s() {
		if hasNulls && col.IsNull(i) {
			continue
		}
		if !ok {
			lo, hi, ok = v, v, true
			continue
		}
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi, ok
}

// distinctInt64s counts the distinct non-NULL values of an Int64 vector
// whose values lie in [lo, hi]. A span under 64 bits per row is counted
// in a bitset over it, which is then no larger than the column itself;
// only a wider span needs the map.
func distinctInt64s(col *columnar.Vector, hasNulls bool, lo, hi int64) int64 {
	vals := col.Int64s()
	if span := uint64(hi) - uint64(lo); span < 64*uint64(len(vals)) {
		seen := make([]uint64, span/64+1)
		for i, v := range vals {
			if hasNulls && col.IsNull(i) {
				continue
			}
			d := uint64(v) - uint64(lo)
			seen[d>>6] |= 1 << (d & 63)
		}
		var n int
		for _, w := range seen {
			n += bits.OnesCount64(w)
		}
		return int64(n)
	}
	seen := make(map[int64]struct{})
	for i, v := range vals {
		if hasNulls && col.IsNull(i) {
			continue
		}
		seen[v] = struct{}{}
	}
	return int64(len(seen))
}

// MergeStats folds the statistics of an appended batch into existing
// table statistics (distinct counts saturate at the sum — an upper
// bound, which is the safe direction for selectivity).
func MergeStats(a, b plan.TableStats) plan.TableStats {
	out := a
	out.Rows = a.Rows + b.Rows
	for c := range out.Distinct {
		if c < len(b.Distinct) {
			out.Distinct[c] = a.Distinct[c] + b.Distinct[c]
		}
		if c < len(b.IntBounds) && b.IntBounds[c] {
			if !a.IntBounds[c] {
				out.MinInt[c], out.MaxInt[c] = b.MinInt[c], b.MaxInt[c]
				out.IntBounds[c] = true
			} else {
				if b.MinInt[c] < out.MinInt[c] {
					out.MinInt[c] = b.MinInt[c]
				}
				if b.MaxInt[c] > out.MaxInt[c] {
					out.MaxInt[c] = b.MaxInt[c]
				}
			}
		}
	}
	return out
}
