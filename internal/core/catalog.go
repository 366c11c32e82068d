package core

import (
	"math/bits"
	"slices"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/plan"
)

// statsFromWrite derives planner statistics for a loaded batch from the
// write summaries of the segments it was stored as
// (storage.Server.AppendSummary), so statistics maintenance rides the
// ingest walk the encoder already makes instead of a pass of its own.
// BIGINT bounds are the segments' zone maps folded, and the column's
// distinct count one bitset walk over them; a VARCHAR column's distinct
// count is the size of the union of its segments' distinct sets, each
// exact, so a batch that spans several segments is not over-counted, and
// its average width is Σ len plus a 16-byte header a non-NULL row.
func statsFromWrite(b *columnar.Batch, segs [][]encoding.WriteSummary) plan.TableStats {
	st := plan.StatsFromSchema(b.Schema())
	st.Rows = int64(b.NumRows())
	for c := 0; c < b.NumCols(); c++ {
		switch col := b.Col(c); col.Type() {
		case columnar.Int64:
			if lo, hi, ok := zoneBounds(segs, c); ok {
				st.MinInt[c], st.MaxInt[c], st.IntBounds[c] = lo, hi, true
				st.Distinct[c] = distinctInt64s(col, col.HasNulls(), lo, hi)
			}
		case columnar.String:
			st.Distinct[c] = distinctStrings(segs, c)
			var bytes int64
			for _, seg := range segs {
				w := seg[c]
				bytes += w.StringBytes + 16*int64(w.Stats.NumValues-w.Stats.NullCount)
			}
			if st.Rows > 0 {
				st.ColBytes[c] = max(bytes/st.Rows, 1)
			}
		case columnar.Float64:
			// Distinct tracking for floats is rarely useful; leave 0.
		case columnar.Bool:
			st.Distinct[c] = 2
		}
	}
	return st
}

// zoneBounds folds column c's zone maps over the segments: the smallest
// and largest non-NULL value, and false when no segment has one.
func zoneBounds(segs [][]encoding.WriteSummary, c int) (lo, hi int64, ok bool) {
	for _, seg := range segs {
		z := seg[c].Stats
		if !z.HasMinMax {
			continue
		}
		if !ok {
			lo, hi, ok = z.MinI, z.MaxI, true
			continue
		}
		lo, hi = min(lo, z.MinI), max(hi, z.MaxI)
	}
	return lo, hi, ok
}

// distinctStrings is the size of the union of column c's distinct sets
// over the segments: their entries sorted together, each counted once.
// It touches an entry once per segment that holds it, never a row.
func distinctStrings(segs [][]encoding.WriteSummary, c int) int64 {
	var all []string
	for _, seg := range segs {
		all = append(all, seg[c].Distinct...)
	}
	slices.Sort(all)
	return int64(len(slices.Compact(all)))
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
// table statistics. Distinct counts are summed: an upper bound on the
// union's, which is the safe direction for selectivity.
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
