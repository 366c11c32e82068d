package plan

import (
	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/sim"
)

// TableStats carries the per-table statistics the optimizer estimates
// costs from. Engines maintain them at ingest time.
type TableStats struct {
	Rows int64
	// ColBytes is the average in-memory bytes per value, per column.
	ColBytes []int64
	// Distinct estimates distinct values per column (0 = unknown).
	Distinct []int64
	// MinInt/MaxInt bound BIGINT columns (valid where IntBounds is set).
	MinInt, MaxInt []int64
	IntBounds      []bool
	// EncodedFraction is the encoded share of a row's decoded bytes, used
	// to cost the storage-side decode. Nothing measures it: it is
	// StatsFromSchema's prior of 0.5 unless SetStats supplies another.
	EncodedFraction float64
}

// StatsFromSchema initializes empty stats sized for the schema.
func StatsFromSchema(s *columnar.Schema) TableStats {
	n := s.NumFields()
	st := TableStats{
		ColBytes:        make([]int64, n),
		Distinct:        make([]int64, n),
		MinInt:          make([]int64, n),
		MaxInt:          make([]int64, n),
		IntBounds:       make([]bool, n),
		EncodedFraction: 0.5,
	}
	for i, f := range s.Fields {
		switch f.Type {
		case columnar.Int64, columnar.Float64:
			st.ColBytes[i] = 8
		case columnar.Bool:
			st.ColBytes[i] = 1
		case columnar.String:
			st.ColBytes[i] = 24
		}
	}
	return st
}

// RowBytes reports the average width of the given columns (all columns
// when cols is nil).
func (s TableStats) RowBytes(cols []int) int64 {
	if cols == nil {
		var n int64
		for _, b := range s.ColBytes {
			n += b
		}
		return n
	}
	var n int64
	for _, c := range cols {
		if c < len(s.ColBytes) {
			n += s.ColBytes[c]
		}
	}
	return n
}

// TotalBytes reports the estimated decoded table size.
func (s TableStats) TotalBytes() sim.Bytes {
	return sim.Bytes(s.Rows * s.RowBytes(nil))
}

// GroupEstimate bounds the number of groups a group-by produces.
func (s TableStats) GroupEstimate(g *expr.GroupBy) int64 {
	if g == nil || len(g.GroupCols) == 0 {
		return 1
	}
	est := int64(1)
	for _, c := range g.GroupCols {
		d := int64(100) // default per-column cardinality
		if c < len(s.Distinct) && s.Distinct[c] > 0 {
			d = s.Distinct[c]
		}
		if est > s.Rows/max64(d, 1) {
			est = s.Rows
		} else {
			est *= d
		}
		if est >= s.Rows {
			return s.Rows
		}
	}
	return est
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Default selectivities where statistics cannot decide.
const (
	defaultEqSel    = 0.1
	defaultRangeSel = 1.0 / 3.0
	defaultLikeSel  = 0.1
)

// EstimateSelectivity predicts the fraction of rows a predicate keeps,
// with the standard textbook heuristics refined by available statistics.
func EstimateSelectivity(p expr.Predicate, s TableStats) float64 {
	switch t := p.(type) {
	case nil:
		return 1
	case *expr.Cmp:
		return cmpSelectivity(t, s)
	case *expr.Between:
		if t.Col < len(s.IntBounds) && s.IntBounds[t.Col] && s.MaxInt[t.Col] > s.MinInt[t.Col] {
			// Clip [Lo, Hi] to the bounds, in float64 so nothing overflows.
			lo, hi := float64(s.MinInt[t.Col]), float64(s.MaxInt[t.Col])
			width := min(float64(t.Hi), hi) - max(float64(t.Lo), lo) + 1
			if width <= 0 {
				return 0
			}
			return clamp01(width / (hi - lo + 1))
		}
		return defaultRangeSel
	case *expr.Like:
		return defaultLikeSel
	case *expr.In:
		// Sum of point selectivities, bounded by 1.
		eq := defaultEqSel
		if t.Col < len(s.Distinct) && s.Distinct[t.Col] > 0 {
			eq = 1 / float64(s.Distinct[t.Col])
		}
		return clamp01(float64(len(t.Vals)) * eq)
	case *expr.And:
		sel := 1.0
		for _, sub := range t.Preds {
			sel *= EstimateSelectivity(sub, s)
		}
		return sel
	case *expr.Or:
		keep := 1.0
		for _, sub := range t.Preds {
			keep *= 1 - EstimateSelectivity(sub, s)
		}
		return 1 - keep
	case *expr.Not:
		return 1 - EstimateSelectivity(t.Pred, s)
	}
	return defaultRangeSel
}

func cmpSelectivity(c *expr.Cmp, s TableStats) float64 {
	eq := defaultEqSel
	if c.Col < len(s.Distinct) && s.Distinct[c.Col] > 0 {
		eq = 1 / float64(s.Distinct[c.Col])
	}
	switch c.Op {
	case expr.Eq:
		return eq
	case expr.Ne:
		return 1 - eq
	}
	// Range comparison: use bounds when the column is an int with known
	// min/max and the constant is an int.
	if c.Val.Type == columnar.Int64 && c.Col < len(s.IntBounds) && s.IntBounds[c.Col] && s.MaxInt[c.Col] > s.MinInt[c.Col] {
		lo, hi := float64(s.MinInt[c.Col]), float64(s.MaxInt[c.Col])
		v := float64(c.Val.I)
		frac := (v - lo) / (hi - lo)
		switch c.Op {
		case expr.Lt, expr.Le:
			return clamp01(frac)
		case expr.Gt, expr.Ge:
			return clamp01(1 - frac)
		}
	}
	return defaultRangeSel
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
