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
	cols := append(make([]int, 0, len(g.GroupCols)+len(g.Aggs)), g.GroupCols...)
	for _, a := range g.Aggs {
		if a.Func != Count {
			cols = append(cols, a.Col)
		}
	}
	return cols
}

// OutputSchema derives the result schema: group columns first, then one
// column per aggregate. Avg and Count produce DOUBLE and BIGINT; Sum
// follows the input type; Min/Max keep the input type.
func (g GroupBy) OutputSchema(in *columnar.Schema) *columnar.Schema {
	fields := make([]columnar.Field, 0, len(g.GroupCols)+len(g.Aggs))
	for _, c := range g.GroupCols {
		fields = append(fields, in.Fields[c])
	}
	for _, a := range g.Aggs {
		switch a.Func {
		case Count:
			fields = append(fields, columnar.Field{Name: "count", Type: columnar.Int64})
		case Avg:
			fields = append(fields, columnar.Field{
				Name: fmt.Sprintf("avg_%s", in.Fields[a.Col].Name), Type: columnar.Float64})
		case Sum:
			fields = append(fields, columnar.Field{
				Name: fmt.Sprintf("sum_%s", in.Fields[a.Col].Name), Type: in.Fields[a.Col].Type})
		case Min:
			fields = append(fields, columnar.Field{
				Name: fmt.Sprintf("min_%s", in.Fields[a.Col].Name), Type: in.Fields[a.Col].Type})
		case Max:
			fields = append(fields, columnar.Field{
				Name: fmt.Sprintf("max_%s", in.Fields[a.Col].Name), Type: in.Fields[a.Col].Type})
		}
	}
	return &columnar.Schema{Fields: fields}
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

// Result extracts the final value for the given function and output type.
func (s *AggState) Result(f AggFunc, t columnar.Type) columnar.Value {
	if s.Count == 0 && f != Count {
		return columnar.NullValue(t)
	}
	switch f {
	case Count:
		return columnar.IntValue(s.Count)
	case Avg:
		return columnar.FloatValue(s.SumF / float64(s.Count))
	case Sum:
		if t == columnar.Float64 {
			return columnar.FloatValue(s.SumF)
		}
		return columnar.IntValue(s.SumI)
	case Min:
		if t == columnar.Float64 {
			return columnar.FloatValue(s.MinF)
		}
		return columnar.IntValue(s.MinI)
	case Max:
		if t == columnar.Float64 {
			return columnar.FloatValue(s.MaxF)
		}
		return columnar.IntValue(s.MaxI)
	}
	panic(fmt.Sprintf("expr: unknown aggregate %v", f))
}

// StateSize is the approximate in-memory footprint of one AggState plus
// its hash-table entry, used to enforce accelerator state budgets.
const StateSize = 96
