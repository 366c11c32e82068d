package expr

import (
	"fmt"
	"math"

	"repro/internal/columnar"
)

// AggFunc is an aggregate function.
type AggFunc uint8

// Aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Min
	Max
	Avg
)

// String renders the function in SQL style.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	}
	return fmt.Sprintf("AggFunc(%d)", uint8(f))
}

// AggSpec is one aggregate over one input column. Count ignores Col.
type AggSpec struct {
	Func AggFunc
	Col  int
}

// String renders the spec.
func (a AggSpec) String() string {
	if a.Func == Count {
		return "COUNT(*)"
	}
	return fmt.Sprintf("%s(col%d)", a.Func, a.Col)
}

// GroupBy describes a (possibly empty) group-by with aggregates.
// An empty GroupCols list is a scalar aggregation.
type GroupBy struct {
	GroupCols []int
	Aggs      []AggSpec
}

// Columns lists the input columns the aggregation reads: the group keys,
// then every non-COUNT aggregate's argument (COUNT reads none). Columns
// may repeat; ColumnSet makes a set of them.
func (g GroupBy) Columns() []int {
	cols := make([]int, 0, len(g.GroupCols)+len(g.Aggs))
	g.eachColumn(func(c int) { cols = append(cols, c) })
	return cols
}

// eachColumn calls fn with every column Columns lists.
func (g *GroupBy) eachColumn(fn func(int)) {
	for _, c := range g.GroupCols {
		fn(c)
	}
	for _, a := range g.Aggs {
		if a.Func != Count {
			fn(a.Col)
		}
	}
}

// OutputSchema derives the result schema: group columns first, then one
// column per aggregate, named "count" or after its function and input
// ("sum_l_quantity"), of the type resultType gives.
func (g GroupBy) OutputSchema(in *columnar.Schema) *columnar.Schema {
	fields := make([]columnar.Field, 0, len(g.GroupCols)+len(g.Aggs))
	for _, c := range g.GroupCols {
		fields = append(fields, in.Fields[c])
	}
	for _, a := range g.Aggs {
		f := columnar.Field{Name: "count", Type: columnar.Int64}
		if a.Func != Count {
			arg := in.Fields[a.Col]
			f = columnar.Field{Name: resultPrefix[a.Func] + arg.Name, Type: a.Func.resultType(arg.Type)}
		}
		fields = append(fields, f)
	}
	return &columnar.Schema{Fields: fields}
}

// resultPrefix is what OutputSchema puts before an aggregate's input
// column name.
var resultPrefix = [...]string{Sum: "sum_", Min: "min_", Max: "max_", Avg: "avg_"}

// resultType is the type of f's result over an input of type t: BIGINT
// for COUNT, DOUBLE for AVG, the input type for SUM, MIN and MAX.
func (f AggFunc) resultType(t columnar.Type) columnar.Type {
	switch f {
	case Count:
		return columnar.Int64
	case Avg:
		return columnar.Float64
	}
	return t
}

// AggState accumulates one aggregate for one group. Partial states
// combine associatively, which is what lets the paper's staged
// pre-aggregation pipeline (Section 4.4) split one group-by across
// storage, both NICs, and the CPU.
//
// A state carries what its function reads: Count always (a group has
// rows exactly when Count > 0), plus SumI for SUM over BIGINT, SumF for
// SUM over DOUBLE and AVG over either, and the one extremum of the input
// type for MIN and MAX. The fold writes nothing else, so the other fields
// stay zero, and Merge keeps them zero. MIN and MAX of a DOUBLE follow
// one total order, lessF, so they do not depend on the order rows or
// partials arrive in.
type AggState struct {
	Count int64
	SumI  int64
	SumF  float64
	MinI  int64
	MaxI  int64
	MinF  float64
	MaxF  float64
}

// Merge folds another partial state into s. Merging is what downstream
// pipeline stages do with upstream partials.
func (s *AggState) Merge(o *AggState) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = *o
		return
	}
	s.Count += o.Count
	s.SumI += o.SumI
	s.SumF += o.SumF
	s.MinI = min(s.MinI, o.MinI)
	s.MaxI = max(s.MaxI, o.MaxI)
	if lessF(o.MinF, s.MinF) {
		s.MinF = o.MinF
	}
	if lessF(s.MaxF, o.MaxF) {
		s.MaxF = o.MaxF
	}
}

// lessF is the total order MIN and MAX of a DOUBLE use: the IEEE order,
// but with -0.0 below +0.0 and every NaN, all of them equal, above +Inf.
// Under < alone the two zeros tie and NaN compares false, so the first
// row or partial met would win and the result's bits would change with
// the worker count, the group budget or the merge order.
func lessF(a, b float64) bool {
	return a < b || a == b && math.Signbit(a) && !math.Signbit(b) || a == a && b != b
}

// canonF is f, or math.NaN() when f is any NaN: the one NaN the fold
// stores for a MIN or MAX, so a state's bits do not depend on which NaN
// arrived first.
func canonF(f float64) float64 {
	if f != f {
		return math.NaN()
	}
	return f
}

// final is f's result over s as a BIGINT and as a DOUBLE: the result
// type picks one. Unless f is COUNT, a state without rows has no result
// (it is NULL) and what final returns for it is meaningless.
func (s *AggState) final(f AggFunc) (int64, float64) {
	switch f {
	case Count:
		return s.Count, 0
	case Avg:
		return 0, s.SumF / float64(s.Count)
	case Sum:
		return s.SumI, s.SumF
	case Min:
		return s.MinI, s.MinF
	case Max:
		return s.MaxI, s.MaxF
	}
	panic(fmt.Sprintf("expr: unknown aggregate %v", f))
}

// StateSize is the approximate in-memory footprint of one AggState plus
// its hash-table entry, used to enforce accelerator state budgets.
const StateSize = 96
