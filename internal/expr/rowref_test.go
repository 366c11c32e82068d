package expr

import (
	"slices"

	"repro/internal/columnar"
)

// Result is the final value of f over an input of type t, boxed: NULL of
// the result type when the group had no input, except for COUNT. It is
// what the row-built reference appends; FinalAggregator.Result writes the
// same values a column at a time.
func (s *AggState) Result(f AggFunc, t columnar.Type) columnar.Value {
	t = f.resultType(t)
	if s.Count == 0 && f != Count {
		return columnar.NullValue(t)
	}
	i, x := s.final(f)
	if t == columnar.Float64 {
		return columnar.FloatValue(x)
	}
	return columnar.IntValue(i)
}

// RowReference aggregates batches a row at a time (refAgg) and returns
// what a PartialAggregator with the same budget flushes, its last Flush
// included, and what a FinalAggregator's Result is: each group appended
// with AppendRow, its aggregates from AggState.Result, in the order of
// the groups' encoded keys. It lets the external tests, which can build
// workload data, check Flush and Result against the row-built batches.
func RowReference(spec GroupBy, in *columnar.Schema, budget int, batches ...*columnar.Batch) (flushed []*columnar.Batch, result *columnar.Batch) {
	part := &refAgg{spec: spec, in: in, max: budget, slot: map[string]int{}}
	all := &refAgg{spec: spec, in: in, slot: map[string]int{}}
	for _, b := range batches {
		part.addRaw(b)
		all.addRaw(b)
	}
	part.flush()

	ng := len(spec.GroupCols)
	keySchema := columnar.NewSchema(spec.OutputSchema(in).Fields[:ng]...)
	keyCols := make([]int, ng)
	for i := range keyCols {
		keyCols[i] = i
	}
	keyRows := columnar.NewBatch(keySchema, len(all.vals))
	for _, vals := range all.vals {
		keyRows.AppendRow(vals...)
	}
	order := make([]int, len(all.vals))
	for s := range order {
		order[s] = s
	}
	slices.SortFunc(order, func(a, b int) int {
		return slices.Compare(appendGroupKey(nil, keyRows, keyCols, a), appendGroupKey(nil, keyRows, keyCols, b))
	})

	result = columnar.NewBatch(spec.OutputSchema(in), len(all.vals))
	for _, s := range order {
		row := slices.Clone(all.vals[s])
		for ai, a := range spec.Aggs {
			typ := columnar.Int64
			if a.Func != Count {
				typ = in.Fields[a.Col].Type
			}
			row = append(row, all.states[s][ai].Result(a.Func, typ))
		}
		result.AppendRow(row...)
	}
	return part.flushed, result
}
