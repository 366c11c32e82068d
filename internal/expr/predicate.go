// Package expr defines the predicate and aggregation vocabulary shared by
// every processing site in the fabric. The same predicate tree can be
// evaluated by the CPU operators, the in-storage processor, a smart NIC,
// or the near-memory accelerator — the paper's point that operators must
// be redesigned to run "on data as it flows" wherever the planner places
// them (Section 1).
package expr

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/columnar"
)

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String renders the operator in SQL style.
func (o CmpOp) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return fmt.Sprintf("CmpOp(%d)", uint8(o))
}

// Predicate is a boolean expression over one batch row. Eval returns a
// selection bitmap with one bit per row; NULL comparisons are false
// (SQL three-valued logic collapsed to the filter's needs).
type Predicate interface {
	// Eval computes the selection bitmap for the batch.
	Eval(b *columnar.Batch) *columnar.Bitmap
	// Columns returns the batch column indices the predicate reads.
	Columns() []int
	// String renders the predicate in SQL style.
	String() string
}

// Cmp compares column Col against a constant.
type Cmp struct {
	Col int
	Op  CmpOp
	Val columnar.Value
}

// NewCmp builds a comparison predicate.
func NewCmp(col int, op CmpOp, val columnar.Value) *Cmp {
	return &Cmp{Col: col, Op: op, Val: val}
}

// Eval implements Predicate.
func (c *Cmp) Eval(b *columnar.Batch) *columnar.Bitmap {
	col := b.Col(c.Col)
	switch c.Val.Type {
	case columnar.String:
		return matchStrings(b.NewSelection(), col, c.matchString)
	case columnar.Int64:
		lo, hi, ne := c.intRange()
		return intRangeSel(b.NewSelection(), col, lo, hi, ne)
	case columnar.Float64:
		return c.floatSel(b.NewSelection(), col)
	case columnar.Bool:
		return c.boolSel(b.NewSelection(), col)
	}
	return b.NewSelection()
}

// boolSel sets in sel, a clear bitmap of the column's rows, the non-NULL
// rows of a BOOLEAN column that pass = or <>; an ordered comparison of
// booleans passes nothing.
func (c *Cmp) boolSel(sel *columnar.Bitmap, col *columnar.Vector) *columnar.Bitmap {
	want := c.Val.B
	for i, v := range col.Bools() {
		if col.IsNull(i) {
			continue
		}
		match := v == want
		if c.Op == Ne {
			match = !match
		} else if c.Op != Eq {
			match = false
		}
		if match {
			sel.Set(i)
		}
	}
	return sel
}

// intRange is the BIGINT comparison as a range: the values in [lo, hi],
// or with ne the values outside it. A comparison nothing passes (< the
// least BIGINT, > the greatest, an unknown operator) is an empty range,
// lo > hi.
func (c *Cmp) intRange() (lo, hi int64, ne bool) {
	want := c.Val.I
	switch c.Op {
	case Eq, Ne:
		return want, want, c.Op == Ne
	case Le:
		return math.MinInt64, want, false
	case Ge:
		return want, math.MaxInt64, false
	case Lt:
		if want > math.MinInt64 {
			return math.MinInt64, want - 1, false
		}
	case Gt:
		if want < math.MaxInt64 {
			return want + 1, math.MaxInt64, false
		}
	}
	return 1, 0, false
}

// intRangeSel sets in sel, a clear bitmap of the column's rows, the
// non-NULL rows of a BIGINT column whose value is in [lo, hi], or with out
// set the ones outside it, with Between's one-compare test and the
// kernels' branch-free word (see encoding's b2u); an empty range selects
// nothing either way.
func intRangeSel(sel *columnar.Bitmap, col *columnar.Vector, lo, hi int64, out bool) *columnar.Bitmap {
	vals := col.Int64s()
	if lo > hi {
		return sel
	}
	base, span, flip := uint64(lo), uint64(hi)-uint64(lo), b2u(out)
	nulls := col.Nulls()
	for wi := 0; wi<<6 < len(vals); wi++ {
		chunk := vals[wi<<6 : min(wi<<6+64, len(vals))]
		var w uint64
		for _, v := range chunk {
			w = w>>1 | (b2u(uint64(v)-base <= span)^flip)<<63
		}
		sel.SetWord(wi, w>>uint(64-len(chunk))&^nullWord(nulls, wi))
	}
	return sel
}

// floatSel sets in sel, a clear bitmap of the column's rows, the non-NULL
// rows of a DOUBLE column that pass the comparison: each row is compared
// with the constant three ways and the operator picks which outcomes
// pass, so NaN — neither less, equal nor greater — passes only <>, as it
// does under Go's operators.
func (c *Cmp) floatSel(sel *columnar.Bitmap, col *columnar.Vector) *columnar.Bitmap {
	var lt, eq, gt, flip uint64
	switch c.Op {
	case Eq:
		eq = 1
	case Ne:
		eq, flip = 1, 1
	case Lt:
		lt = 1
	case Le:
		lt, eq = 1, 1
	case Gt:
		gt = 1
	case Ge:
		gt, eq = 1, 1
	}
	want, vals := c.Val.F, col.Float64s()
	nulls := col.Nulls()
	for wi := 0; wi<<6 < len(vals); wi++ {
		chunk := vals[wi<<6 : min(wi<<6+64, len(vals))]
		var w uint64
		for _, v := range chunk {
			pass := b2u(v < want)&lt | b2u(v == want)&eq | b2u(v > want)&gt
			w = w>>1 | (pass^flip)<<63
		}
		sel.SetWord(wi, w>>uint(64-len(chunk))&^nullWord(nulls, wi))
	}
	return sel
}

// nullWord is word wi of a column's null bitmap, which is nil when the
// column has no NULL and otherwise ends at its last one: the rows past
// its end are not NULL.
func nullWord(nulls *columnar.Bitmap, wi int) uint64 {
	if nulls != nil && wi < len(nulls.Words()) {
		return nulls.Words()[wi]
	}
	return 0
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// matchString is the test Cmp makes of one string value.
func (c *Cmp) matchString(s string) bool { return cmpString(s, c.Val.S, c.Op) }

func cmpString(a, b string, op CmpOp) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	return false
}

// Columns implements Predicate.
func (c *Cmp) Columns() []int { return []int{c.Col} }

// String implements Predicate.
func (c *Cmp) String() string {
	return fmt.Sprintf("col%d %s %s", c.Col, c.Op, c.Val)
}

// Between selects rows with Lo <= col <= Hi over int64 columns, the
// zone-map-friendly range predicate.
type Between struct {
	Col    int
	Lo, Hi int64
}

// NewBetween builds a range predicate.
func NewBetween(col int, lo, hi int64) *Between { return &Between{Col: col, Lo: lo, Hi: hi} }

// Eval implements Predicate.
func (p *Between) Eval(b *columnar.Batch) *columnar.Bitmap {
	return intRangeSel(b.NewSelection(), b.Col(p.Col), p.Lo, p.Hi, false)
}

// Columns implements Predicate.
func (p *Between) Columns() []int { return []int{p.Col} }

// String implements Predicate.
func (p *Between) String() string {
	return fmt.Sprintf("col%d BETWEEN %d AND %d", p.Col, p.Lo, p.Hi)
}

// Like selects string rows containing Pattern as a substring, the
// simplified LIKE '%pattern%' the paper's AQUA example pushes to an
// accelerator (Section 3.3).
type Like struct {
	Col     int
	Pattern string
}

// NewLike builds a substring-match predicate.
func NewLike(col int, pattern string) *Like { return &Like{Col: col, Pattern: pattern} }

// Eval implements Predicate.
func (p *Like) Eval(b *columnar.Batch) *columnar.Bitmap {
	return matchStrings(b.NewSelection(), b.Col(p.Col), p.match)
}

// match is the test Like makes of one string value.
func (p *Like) match(s string) bool { return strings.Contains(s, p.Pattern) }

// Columns implements Predicate.
func (p *Like) Columns() []int { return []int{p.Col} }

// String implements Predicate.
func (p *Like) String() string {
	return fmt.Sprintf("col%d LIKE '%%%s%%'", p.Col, p.Pattern)
}

// In selects rows whose column value equals any of Vals. All values
// must share the column's type; on low-cardinality columns the encoded
// kernels translate the list into a dictionary code-set once and compare
// codes.
type In struct {
	Col  int
	Vals []columnar.Value
}

// NewIn builds a set-membership predicate.
func NewIn(col int, vals ...columnar.Value) *In { return &In{Col: col, Vals: vals} }

// Eval implements Predicate.
func (p *In) Eval(b *columnar.Batch) *columnar.Bitmap {
	col := b.Col(p.Col)
	if len(p.Vals) > 0 && p.Vals[0].Type == columnar.String {
		return matchStrings(b.NewSelection(), col, p.stringMatcher())
	}
	sel := b.NewSelection()
	if len(p.Vals) == 0 {
		return sel
	}
	switch p.Vals[0].Type {
	case columnar.Int64:
		want := make(map[int64]struct{}, len(p.Vals))
		for _, v := range p.Vals {
			want[v.I] = struct{}{}
		}
		for i, v := range col.Int64s() {
			if _, ok := want[v]; ok && !col.IsNull(i) {
				sel.Set(i)
			}
		}
	case columnar.Float64:
		want := make(map[float64]struct{}, len(p.Vals))
		for _, v := range p.Vals {
			want[v.F] = struct{}{}
		}
		for i, v := range col.Float64s() {
			if _, ok := want[v]; ok && !col.IsNull(i) {
				sel.Set(i)
			}
		}
	}
	return sel
}

// stringMatcher is the test In makes of one string value.
func (p *In) stringMatcher() func(string) bool {
	want := make(map[string]struct{}, len(p.Vals))
	for _, v := range p.Vals {
		want[v.S] = struct{}{}
	}
	return func(s string) bool {
		_, ok := want[s]
		return ok
	}
}

// matchStrings is the one evaluation of a string test over a String
// column, for Cmp, Like and In: it sets in sel, a clear bitmap of the
// column's rows, the non-NULL rows whose value passes match. It runs
// match once per row and reads each row with StringAt, so a coded column
// and a plain one take the same loop and neither allocates strings.
func matchStrings(sel *columnar.Bitmap, col *columnar.Vector, match func(string) bool) *columnar.Bitmap {
	n := col.Len()
	for i := 0; i < n; i++ {
		if !col.IsNull(i) && match(col.StringAt(i)) {
			sel.Set(i)
		}
	}
	return sel
}

// Columns implements Predicate.
func (p *In) Columns() []int { return []int{p.Col} }

// String implements Predicate.
func (p *In) String() string {
	parts := make([]string, len(p.Vals))
	for i, v := range p.Vals {
		parts[i] = v.String()
	}
	return fmt.Sprintf("col%d IN (%s)", p.Col, strings.Join(parts, ", "))
}

// And conjoins predicates.
type And struct{ Preds []Predicate }

// NewAnd builds a conjunction.
func NewAnd(preds ...Predicate) *And { return &And{Preds: preds} }

// Eval implements Predicate.
func (p *And) Eval(b *columnar.Batch) *columnar.Bitmap {
	if len(p.Preds) == 0 {
		sel := b.NewSelection()
		sel.Fill(0, sel.Len())
		return sel
	}
	sel := p.Preds[0].Eval(b)
	for _, sub := range p.Preds[1:] {
		sel.And(sub.Eval(b))
	}
	return sel
}

// Columns implements Predicate.
func (p *And) Columns() []int { return unionColumns(p.Preds) }

// String implements Predicate.
func (p *And) String() string { return joinPreds(p.Preds, " AND ") }

// Or disjoins predicates.
type Or struct{ Preds []Predicate }

// NewOr builds a disjunction.
func NewOr(preds ...Predicate) *Or { return &Or{Preds: preds} }

// Eval implements Predicate.
func (p *Or) Eval(b *columnar.Batch) *columnar.Bitmap {
	sel := b.NewSelection()
	for _, sub := range p.Preds {
		sel.Or(sub.Eval(b))
	}
	return sel
}

// Columns implements Predicate.
func (p *Or) Columns() []int { return unionColumns(p.Preds) }

// String implements Predicate.
func (p *Or) String() string { return joinPreds(p.Preds, " OR ") }

// Not negates a predicate. NULL handling note: Not flips the selection
// bitmap, so rows whose comparison was NULL (unselected) become selected;
// the engine treats filters as bitmap algebra rather than full
// three-valued logic.
type Not struct{ Pred Predicate }

// NewNot builds a negation.
func NewNot(pred Predicate) *Not { return &Not{Pred: pred} }

// Eval implements Predicate.
func (p *Not) Eval(b *columnar.Batch) *columnar.Bitmap {
	out := b.NewSelection()
	out.Fill(0, out.Len())
	out.AndNot(p.Pred.Eval(b))
	return out
}

// Columns implements Predicate.
func (p *Not) Columns() []int { return p.Pred.Columns() }

// String implements Predicate.
func (p *Not) String() string { return "NOT (" + p.Pred.String() + ")" }

// unionColumns lists the distinct columns of preds in first-use order
// (callers ship Columns()[0] as a COUNT's one narrow column). A linear
// scan: a predicate touches a handful of columns.
func unionColumns(preds []Predicate) []int {
	var out []int
	for _, p := range preds {
		for _, c := range p.Columns() {
			if !slices.Contains(out, c) {
				out = append(out, c)
			}
		}
	}
	return out
}

// ColumnSet is the ascending, duplicate-free set of table columns that a
// filter, a group-by and a column list touch together (any of them may
// be nil), keeping only indices in [0, numCols). Ascending is the order
// storage ships columns in. An empty set is nil. The set is marked in a
// bitset, one word on the stack up to 64 columns.
func ColumnSet(numCols int, filter Predicate, g *GroupBy, more []int) []int {
	var small [1]uint64
	used := small[:]
	if numCols > 64 {
		used = make([]uint64, (numCols+63)/64)
	}
	n := 0
	mark := func(cols []int) {
		for _, c := range cols {
			if c >= 0 && c < numCols && used[c>>6]&(1<<(c&63)) == 0 {
				used[c>>6] |= 1 << (c & 63)
				n++
			}
		}
	}
	if filter != nil {
		mark(filter.Columns())
	}
	if g != nil {
		mark(g.Columns())
	}
	mark(more)
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for wi, w := range used {
		for ; w != 0; w &= w - 1 {
			out = append(out, wi<<6+bits.TrailingZeros64(w))
		}
	}
	return out
}

func joinPreds(preds []Predicate, sep string) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = "(" + p.String() + ")"
	}
	return strings.Join(parts, sep)
}

// Rebase returns a copy of p with every column index translated through
// m. Planners use it when a predicate written against a table schema is
// evaluated against a batch holding only a subset of the columns.
func Rebase(p Predicate, m func(int) int) Predicate {
	switch t := p.(type) {
	case *Cmp:
		return &Cmp{Col: m(t.Col), Op: t.Op, Val: t.Val}
	case *Between:
		return &Between{Col: m(t.Col), Lo: t.Lo, Hi: t.Hi}
	case *Like:
		return &Like{Col: m(t.Col), Pattern: t.Pattern}
	case *In:
		return &In{Col: m(t.Col), Vals: t.Vals}
	case *And:
		out := &And{Preds: make([]Predicate, len(t.Preds))}
		for i, sub := range t.Preds {
			out.Preds[i] = Rebase(sub, m)
		}
		return out
	case *Or:
		out := &Or{Preds: make([]Predicate, len(t.Preds))}
		for i, sub := range t.Preds {
			out.Preds[i] = Rebase(sub, m)
		}
		return out
	case *Not:
		return &Not{Pred: Rebase(t.Pred, m)}
	}
	panic(fmt.Sprintf("expr: Rebase does not know %T", p))
}

// IntRange reports the tightest [lo, hi] int64 window the predicate can
// accept on the given column, for zone-map pruning. ok is false when the
// predicate cannot bound that column (the segment must then be read).
func IntRange(p Predicate, col int) (lo, hi int64, ok bool) {
	const (
		minI = -int64(^uint64(0)>>1) - 1
		maxI = int64(^uint64(0) >> 1)
	)
	switch t := p.(type) {
	case *Between:
		if t.Col == col {
			return t.Lo, t.Hi, true
		}
	case *Cmp:
		if t.Col != col || t.Val.Type != columnar.Int64 {
			return 0, 0, false
		}
		switch t.Op {
		case Eq:
			return t.Val.I, t.Val.I, true
		case Lt:
			return minI, t.Val.I - 1, true
		case Le:
			return minI, t.Val.I, true
		case Gt:
			return t.Val.I + 1, maxI, true
		case Ge:
			return t.Val.I, maxI, true
		}
	case *In:
		if t.Col != col || len(t.Vals) == 0 || t.Vals[0].Type != columnar.Int64 {
			return 0, 0, false
		}
		lo, hi = t.Vals[0].I, t.Vals[0].I
		for _, v := range t.Vals[1:] {
			if v.I < lo {
				lo = v.I
			}
			if v.I > hi {
				hi = v.I
			}
		}
		return lo, hi, true
	case *And:
		lo, hi = minI, maxI
		found := false
		for _, sub := range t.Preds {
			if l, h, sok := IntRange(sub, col); sok {
				found = true
				if l > lo {
					lo = l
				}
				if h < hi {
					hi = h
				}
			}
		}
		return lo, hi, found
	}
	return 0, 0, false
}
