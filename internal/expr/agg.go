package expr

import (
	"fmt"

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
type AggState struct {
	Count int64
	SumI  int64
	SumF  float64
	MinI  int64
	MaxI  int64
	MinF  float64
	MaxF  float64
	seen  bool
}

// UpdateInt folds one non-null int64 value into the state.
func (s *AggState) UpdateInt(v int64) {
	s.Count++
	s.SumI += v
	s.SumF += float64(v)
	if !s.seen || v < s.MinI {
		s.MinI = v
	}
	if !s.seen || v > s.MaxI {
		s.MaxI = v
	}
	if !s.seen || float64(v) < s.MinF {
		s.MinF = float64(v)
	}
	if !s.seen || float64(v) > s.MaxF {
		s.MaxF = float64(v)
	}
	s.seen = true
}

// UpdateFloat folds one non-null float64 value into the state.
func (s *AggState) UpdateFloat(v float64) {
	s.Count++
	s.SumF += v
	s.SumI += int64(v)
	if !s.seen || v < s.MinF {
		s.MinF = v
	}
	if !s.seen || v > s.MaxF {
		s.MaxF = v
	}
	if !s.seen || int64(v) < s.MinI {
		s.MinI = int64(v)
	}
	if !s.seen || int64(v) > s.MaxI {
		s.MaxI = int64(v)
	}
	s.seen = true
}

// UpdateCountOnly folds a row that only contributes to COUNT.
func (s *AggState) UpdateCountOnly() {
	s.Count++
	s.seen = true
}

// Merge folds another partial state into s. Merging is what downstream
// pipeline stages do with upstream partials.
func (s *AggState) Merge(o *AggState) {
	if !o.seen {
		return
	}
	if !s.seen {
		*s = *o
		return
	}
	s.Count += o.Count
	s.SumI += o.SumI
	s.SumF += o.SumF
	if o.MinI < s.MinI {
		s.MinI = o.MinI
	}
	if o.MaxI > s.MaxI {
		s.MaxI = o.MaxI
	}
	if o.MinF < s.MinF {
		s.MinF = o.MinF
	}
	if o.MaxF > s.MaxF {
		s.MaxF = o.MaxF
	}
}

// Result extracts the final value for the given function and output type.
func (s *AggState) Result(f AggFunc, t columnar.Type) columnar.Value {
	if !s.seen && f != Count {
		return columnar.NullValue(t)
	}
	switch f {
	case Count:
		return columnar.IntValue(s.Count)
	case Avg:
		if s.Count == 0 {
			return columnar.NullValue(columnar.Float64)
		}
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
