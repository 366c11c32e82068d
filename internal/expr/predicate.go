// Package expr defines the predicate and aggregation vocabulary shared by
// every processing site in the fabric. The same predicate tree can be
// evaluated by the CPU operators, the in-storage processor, a smart NIC,
// or the near-memory accelerator — the paper's point that operators must
// be redesigned to run "on data as it flows" wherever the planner places
// them (Section 1).
package expr

import (
	"fmt"
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
	if c.Val.Type == columnar.String {
		return matchStrings(col, c.matchString)
	}
	sel := columnar.NewBitmap(b.NumRows())
	switch c.Val.Type {
	case columnar.Int64:
		vals := col.Int64s()
		want := c.Val.I
		for i, v := range vals {
			if !col.IsNull(i) && cmpInt(v, want, c.Op) {
				sel.Set(i)
			}
		}
	case columnar.Float64:
		vals := col.Float64s()
		want := c.Val.F
		for i, v := range vals {
			if !col.IsNull(i) && cmpFloat(v, want, c.Op) {
				sel.Set(i)
			}
		}
	case columnar.Bool:
		vals := col.Bools()
		want := c.Val.B
		for i, v := range vals {
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
	}
	return sel
}

func cmpInt(a, b int64, op CmpOp) bool {
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

func cmpFloat(a, b float64, op CmpOp) bool {
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
	col := b.Col(p.Col)
	sel := columnar.NewBitmap(b.NumRows())
	for i, v := range col.Int64s() {
		if !col.IsNull(i) && v >= p.Lo && v <= p.Hi {
			sel.Set(i)
		}
	}
	return sel
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
func (p *Like) Eval(b *columnar.Batch) *columnar.Bitmap { return matchStrings(b.Col(p.Col), p.match) }

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
		return matchStrings(col, p.stringMatcher())
	}
	sel := columnar.NewBitmap(b.NumRows())
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
// column, for Cmp, Like and In: the non-NULL rows whose value passes
// match. It runs match once per row and reads each row with StringAt, so
// a coded column and a plain one take the same loop and neither allocates
// strings.
func matchStrings(col *columnar.Vector, match func(string) bool) *columnar.Bitmap {
	n := col.Len()
	sel := columnar.NewBitmap(n)
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
		sel := columnar.NewBitmap(b.NumRows())
		for i := 0; i < b.NumRows(); i++ {
			sel.Set(i)
		}
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
	sel := columnar.NewBitmap(b.NumRows())
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
	sel := p.Pred.Eval(b)
	out := columnar.NewBitmap(b.NumRows())
	for i := 0; i < b.NumRows(); i++ {
		if !sel.Get(i) {
			out.Set(i)
		}
	}
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
// storage ships columns in. An empty set is nil.
func ColumnSet(numCols int, filter Predicate, g *GroupBy, more []int) []int {
	used := make([]bool, numCols)
	n := 0
	mark := func(cols []int) {
		for _, c := range cols {
			if c >= 0 && c < numCols && !used[c] {
				used[c] = true
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
	for c, u := range used {
		if u {
			out = append(out, c)
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
