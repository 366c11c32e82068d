package expr

import (
	"math"

	"repro/internal/columnar"
	"repro/internal/encoding"
)

// EvalEncoded evaluates a predicate tree directly against encoded
// columns, without decoding values, by dispatching each leaf to the
// matching kernel in internal/encoding. col maps a predicate column
// index to its encoded column (nil when unavailable).
//
// ok=false means some leaf had no kernel for its type/codec pair; the
// caller must fall back to decode-then-eval. The result is bit-identical
// to Predicate.Eval on the decoded batch, including the collapsed NULL
// semantics: leaf comparisons with NULL are false, and Not flips every
// row's bit — NULL rows included — exactly as Not.Eval does.
func EvalEncoded(p Predicate, col func(int) *encoding.EncodedColumn) (*columnar.Bitmap, bool, error) {
	switch t := p.(type) {
	case *Cmp:
		ec := col(t.Col)
		if ec == nil {
			return nil, false, nil
		}
		return evalCmpEncoded(t, ec)
	case *Between:
		ec := col(t.Col)
		if ec == nil {
			return nil, false, nil
		}
		return ec.EvalIntRange(t.Lo, t.Hi)
	case *In:
		ec := col(t.Col)
		if ec == nil || len(t.Vals) == 0 {
			return nil, false, nil
		}
		switch t.Vals[0].Type {
		case columnar.Int64:
			vals := make([]int64, len(t.Vals))
			for i, v := range t.Vals {
				vals[i] = v.I
			}
			return ec.EvalIntIn(vals)
		case columnar.String:
			return ec.EvalStringMatch(t.stringMatcher())
		}
		return nil, false, nil
	case *Like:
		ec := col(t.Col)
		if ec == nil {
			return nil, false, nil
		}
		return ec.EvalStringMatch(t.match)
	case *And:
		if len(t.Preds) == 0 {
			return nil, false, nil
		}
		acc, ok, err := EvalEncoded(t.Preds[0], col)
		if !ok || err != nil {
			return nil, ok, err
		}
		for _, sub := range t.Preds[1:] {
			bm, ok, err := EvalEncoded(sub, col)
			if !ok || err != nil {
				return nil, ok, err
			}
			acc.And(bm)
		}
		return acc, true, nil
	case *Or:
		if len(t.Preds) == 0 {
			return nil, false, nil
		}
		acc, ok, err := EvalEncoded(t.Preds[0], col)
		if !ok || err != nil {
			return nil, ok, err
		}
		for _, sub := range t.Preds[1:] {
			bm, ok, err := EvalEncoded(sub, col)
			if !ok || err != nil {
				return nil, ok, err
			}
			acc.Or(bm)
		}
		return acc, true, nil
	case *Not:
		inner, ok, err := EvalEncoded(t.Pred, col)
		if !ok || err != nil {
			return nil, ok, err
		}
		out := columnar.NewBitmap(inner.Len())
		out.Fill(0, out.Len())
		out.AndNot(inner)
		return out, true, nil
	}
	return nil, false, nil
}

const (
	minInt64 = -int64(^uint64(0)>>1) - 1
	maxInt64 = int64(^uint64(0) >> 1)
)

func evalCmpEncoded(c *Cmp, ec *encoding.EncodedColumn) (*columnar.Bitmap, bool, error) {
	switch c.Val.Type {
	case columnar.Int64:
		v := c.Val.I
		switch c.Op {
		case Eq:
			return ec.EvalIntRange(v, v)
		case Lt:
			if v == minInt64 {
				return ec.EvalIntRange(1, 0) // empty range: all false
			}
			return ec.EvalIntRange(minInt64, v-1)
		case Le:
			return ec.EvalIntRange(minInt64, v)
		case Gt:
			if v == maxInt64 {
				return ec.EvalIntRange(1, 0)
			}
			return ec.EvalIntRange(v+1, maxInt64)
		case Ge:
			return ec.EvalIntRange(v, maxInt64)
		case Ne:
			return complementEq(ec, func() (*columnar.Bitmap, bool, error) { return ec.EvalIntRange(v, v) })
		}
	case columnar.Float64:
		v := c.Val.F
		switch c.Op {
		case Eq:
			return ec.EvalFloatRange(v, v, true, true)
		case Lt:
			return ec.EvalFloatRange(math.Inf(-1), v, true, false)
		case Le:
			return ec.EvalFloatRange(math.Inf(-1), v, true, true)
		case Gt:
			return ec.EvalFloatRange(v, math.Inf(1), false, true)
		case Ge:
			return ec.EvalFloatRange(v, math.Inf(1), true, true)
		case Ne:
			return complementEq(ec, func() (*columnar.Bitmap, bool, error) { return ec.EvalFloatRange(v, v, true, true) })
		}
	case columnar.String:
		return ec.EvalStringMatch(c.matchString)
	}
	return nil, false, nil
}

// complementEq computes v != x as all-rows minus (v == x) minus NULL
// rows, matching the decoded path where a NULL comparison is false.
func complementEq(ec *encoding.EncodedColumn, eq func() (*columnar.Bitmap, bool, error)) (*columnar.Bitmap, bool, error) {
	eqBm, ok, err := eq()
	if !ok || err != nil {
		return nil, ok, err
	}
	out := columnar.NewBitmap(eqBm.Len())
	out.Fill(0, out.Len())
	out.AndNot(eqBm)
	nulls, err := ec.NullBitmap()
	if err != nil {
		return nil, false, err
	}
	if nulls != nil {
		out.AndNot(nulls)
	}
	return out, true, nil
}
