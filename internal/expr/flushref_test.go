package expr_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/workload"
)

// decodedLineitem is n lineitem rows with every column decoded from its
// segment encoding, so l_returnflag is dictionary-coded, cut into two
// batches, each under a 90 % shipdate selection: what agg-lowcard's
// pre-aggregation is handed.
func decodedLineitem(t *testing.T, n int) []*columnar.Batch {
	t.Helper()
	cfg := workload.DefaultLineitemConfig(n)
	gen := workload.GenLineitem(cfg)
	cols := make([]*columnar.Vector, gen.NumCols())
	for i := range cols {
		v, err := encoding.EncodeColumn(gen.Col(i)).Decode()
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = v
	}
	data := columnar.BatchOf(gen.Schema(), cols...)
	filter := workload.SelectivityFilter(cfg, 0.9)
	var out []*columnar.Batch
	for _, half := range []*columnar.Batch{data.Slice(0, n/2), data.Slice(n/2, n)} {
		out = append(out, half.WithSelection(filter.Eval(half)))
	}
	return out
}

// twoKeyBatches have a VARCHAR and a DOUBLE group column, both with NULLs,
// the DOUBLE one with -0.0 and +0.0 (one group, whose value is the first
// row's), and a group whose every aggregate input is NULL.
func twoKeyBatches() (*columnar.Schema, []*columnar.Batch) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.String}, columnar.Field{Name: "z", Type: columnar.Float64},
		columnar.Field{Name: "v", Type: columnar.Int64}, columnar.Field{Name: "f", Type: columnar.Float64},
	)
	var out []*columnar.Batch
	for b := 0; b < 3; b++ {
		batch := columnar.NewBatch(schema, 200)
		for i := 0; i < 200; i++ {
			r := b*200 + i
			k := columnar.StringValue([]string{"a", "b", "c"}[r%3])
			if r%7 == 0 {
				k = columnar.NullValue(columnar.String)
			}
			z := columnar.FloatValue([]float64{math.Copysign(0, -1), 0, 1.5}[r%5%3])
			if r%11 == 0 {
				z = columnar.NullValue(columnar.Float64)
			}
			v, f := columnar.IntValue(int64(r*37%101-50)), columnar.FloatValue(float64(r%13)/3-2)
			if r%4 == 0 || r%10 == 3 {
				v, f = columnar.NullValue(columnar.Int64), columnar.NullValue(columnar.Float64)
			}
			if r%50 == 1 { // group ("only-null", z): no non-NULL input
				k, v, f = columnar.StringValue("only-null"), columnar.NullValue(columnar.Int64), columnar.NullValue(columnar.Float64)
			}
			batch.AppendRow(k, z, v, f)
		}
		out = append(out, batch)
	}
	return schema, out
}

// sameBatch fails unless got is want: schema, column types, values (floats
// bit for bit), null bitmaps word for word, rows in the same order and
// the same ByteSize, per column and in all.
func sameBatch(t *testing.T, what string, got, want *columnar.Batch) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("%s: batch %v, want %v", what, got, want)
		}
		return
	}
	if !got.Schema().Equal(want.Schema()) {
		t.Fatalf("%s: schema %v, want %v", what, got.Schema(), want.Schema())
	}
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: %d×%d, want %d×%d", what, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c := 0; c < want.NumCols(); c++ {
		g, w := got.Col(c), want.Col(c)
		if g.Type() != w.Type() {
			t.Fatalf("%s: column %d is %v, want %v", what, c, g.Type(), w.Type())
		}
		for r := 0; r < want.NumRows(); r++ {
			gv, wv := g.Value(r), w.Value(r)
			same := gv.Equal(wv)
			if gv.Type == columnar.Float64 && !gv.Null && !wv.Null {
				same = math.Float64bits(gv.F) == math.Float64bits(wv.F)
			}
			if !same {
				t.Fatalf("%s: row %d column %d = %v, want %v", what, r, c, gv, wv)
			}
		}
		gn, wn := g.Nulls(), w.Nulls()
		if (gn == nil) != (wn == nil) || gn != nil && (gn.Len() != wn.Len() || !slices.Equal(gn.Words(), wn.Words())) {
			t.Fatalf("%s: column %d null bitmap %v, want %v", what, c, gn, wn)
		}
		if g.ByteSize() != w.ByteSize() {
			t.Fatalf("%s: column %d ByteSize %d, want %d", what, c, g.ByteSize(), w.ByteSize())
		}
	}
	if got.ByteSize() != want.ByteSize() {
		t.Fatalf("%s: ByteSize %d, want %d", what, got.ByteSize(), want.ByteSize())
	}
}

// Flush and Result are the batches the row-at-a-time reference appends
// with AppendRow, over a coded key, a BIGINT key and a two-column key
// with NULLs and both zeros, under budgets that spill mid-batch. A clone
// taken after the first batch folds the rest in reverse order, so it
// makes its groups in another order than the original; every batch is
// compared only once both are done, so one that shares what the other
// writes shows.
func TestFlushAndResultMatchRowReference(t *testing.T) {
	lineitem := decodedLineitem(t, 8192)
	twoKeySchema, twoKey := twoKeyBatches()
	twoKeySpec := expr.GroupBy{GroupCols: []int{0, 1}, Aggs: []expr.AggSpec{
		{Func: expr.Count}, {Func: expr.Sum, Col: 2}, {Func: expr.Min, Col: 3}, {Func: expr.Max, Col: 2},
		{Func: expr.Avg, Col: 3}, {Func: expr.Sum, Col: 3}, {Func: expr.Avg, Col: 2},
	}}
	for _, c := range []struct {
		name    string
		spec    expr.GroupBy
		in      *columnar.Schema
		budget  int
		batches []*columnar.Batch
	}{
		{"PricingSummary", workload.PricingSummary(), workload.LineitemSchema(), 0, lineitem},
		{"PartVolume", workload.PartVolume(), workload.LineitemSchema(), 0, lineitem},
		{"PartVolume, budget 100", workload.PartVolume(), workload.LineitemSchema(), 100, lineitem},
		{"two keys", twoKeySpec, twoKeySchema, 0, twoKey},
		{"two keys, budget 4", twoKeySpec, twoKeySchema, 4, twoKey},
	} {
		p := expr.NewPartialAggregator(c.spec, c.in, c.budget)
		f := expr.NewFinalAggregator(c.spec, c.in)
		got := p.AddRaw(c.batches[0])
		f.AddRaw(c.batches[0])
		pc, fc := p.Clone(), f.Clone()
		gotClone := slices.Clone(got)
		for _, b := range c.batches[1:] {
			got = append(got, p.AddRaw(b)...)
			f.AddRaw(b)
		}
		rest := slices.Clone(c.batches[1:])
		slices.Reverse(rest)
		for _, b := range rest {
			gotClone = append(gotClone, pc.AddRaw(b)...)
			fc.AddRaw(b)
		}
		for _, last := range []struct {
			agg *expr.PartialAggregator
			out *[]*columnar.Batch
		}{{p, &got}, {pc, &gotClone}} {
			if b := last.agg.Flush(); b != nil {
				*last.out = append(*last.out, b)
			}
		}
		result, resultClone := f.Result(), fc.Result()

		for _, run := range []struct {
			what    string
			batches []*columnar.Batch
			got     []*columnar.Batch
			result  *columnar.Batch
		}{
			{c.name, c.batches, got, result},
			{c.name + ", clone", append(c.batches[:1:1], rest...), gotClone, resultClone},
		} {
			wantFlushed, wantResult := expr.RowReference(c.spec, c.in, c.budget, run.batches...)
			if len(run.got) != len(wantFlushed) {
				t.Fatalf("%s: %d partial batches, want %d", run.what, len(run.got), len(wantFlushed))
			}
			for i := range wantFlushed {
				sameBatch(t, fmt.Sprintf("%s: flush %d", run.what, i), run.got[i], wantFlushed[i])
			}
			sameBatch(t, run.what+": Result", run.result, wantResult)
		}
	}
}
