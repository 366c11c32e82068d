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
	return EvalEncodedInto(nil, p, col)
}

// EvalEncodedInto is EvalEncoded writing the result into dst, a bitmap
// the caller lends (nil for a new one): a scan's selection, reused from
// segment to segment. Only the operands after the first of an AND or an
// OR, a NOT's operand and a != test's equality get bitmaps of their own.
func EvalEncodedInto(dst *columnar.Bitmap, p Predicate, col func(int) *encoding.EncodedColumn) (*columnar.Bitmap, bool, error) {
	switch t := p.(type) {
	case *Cmp:
		ec := col(t.Col)
		if ec == nil {
			return nil, false, nil
		}
		return evalCmpEncoded(dst, t, ec)
	case *Between:
		ec := col(t.Col)
		if ec == nil {
			return nil, false, nil
		}
		return ec.EvalIntRange(dst, t.Lo, t.Hi)
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
			return ec.EvalIntIn(dst, vals)
		case columnar.String:
			return ec.EvalStringMatch(dst, t.stringMatcher())
		}
		return nil, false, nil
	case *Like:
		ec := col(t.Col)
		if ec == nil {
			return nil, false, nil
		}
		return ec.EvalStringMatch(dst, t.match)
	case *And:
		if len(t.Preds) == 0 {
			return nil, false, nil
		}
		acc, ok, err := EvalEncodedInto(dst, t.Preds[0], col)
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
		acc, ok, err := EvalEncodedInto(dst, t.Preds[0], col)
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
		out := dst.Reset(inner.Len())
		out.Fill(0, out.Len())
		out.AndNot(inner)
		return out, true, nil
	}
	return nil, false, nil
}

func evalCmpEncoded(dst *columnar.Bitmap, c *Cmp, ec *encoding.EncodedColumn) (*columnar.Bitmap, bool, error) {
	switch c.Val.Type {
	case columnar.Int64:
		lo, hi, ne := c.intRange()
		if ne {
			return complementEq(dst, ec, func() (*columnar.Bitmap, bool, error) { return ec.EvalIntRange(nil, lo, hi) })
		}
		return ec.EvalIntRange(dst, lo, hi)
	case columnar.Float64:
		v := c.Val.F
		switch c.Op {
		case Eq:
			return ec.EvalFloatRange(dst, v, v, true, true)
		case Lt:
			return ec.EvalFloatRange(dst, math.Inf(-1), v, true, false)
		case Le:
			return ec.EvalFloatRange(dst, math.Inf(-1), v, true, true)
		case Gt:
			return ec.EvalFloatRange(dst, v, math.Inf(1), false, true)
		case Ge:
			return ec.EvalFloatRange(dst, v, math.Inf(1), true, true)
		case Ne:
			return complementEq(dst, ec, func() (*columnar.Bitmap, bool, error) { return ec.EvalFloatRange(nil, v, v, true, true) })
		}
	case columnar.String:
		return ec.EvalStringMatch(dst, c.matchString)
	}
	return nil, false, nil
}

// complementEq computes v != x as all-rows minus (v == x) minus NULL
// rows, matching the decoded path where a NULL comparison is false. The
// result is written into dst (nil for a new bitmap).
func complementEq(dst *columnar.Bitmap, ec *encoding.EncodedColumn, eq func() (*columnar.Bitmap, bool, error)) (*columnar.Bitmap, bool, error) {
	eqBm, ok, err := eq()
	if !ok || err != nil {
		return nil, ok, err
	}
	out := dst.Reset(eqBm.Len())
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
