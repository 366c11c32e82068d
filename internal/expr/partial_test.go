package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/columnar"
	"repro/internal/sim"
)

func salesSchema() *columnar.Schema {
	return columnar.NewSchema(
		columnar.Field{Name: "region", Type: columnar.String},
		columnar.Field{Name: "amount", Type: columnar.Int64},
	)
}

func salesBatch(regions []string, amounts []int64) *columnar.Batch {
	return columnar.BatchOf(salesSchema(),
		columnar.FromStrings(regions),
		columnar.FromInt64s(amounts))
}

func salesSpec() GroupBy {
	return GroupBy{
		GroupCols: []int{0},
		Aggs: []AggSpec{
			{Func: Count},
			{Func: Sum, Col: 1},
			{Func: Min, Col: 1},
			{Func: Max, Col: 1},
			{Func: Avg, Col: 1},
		},
	}
}

func resultByGroup(t *testing.T, b *columnar.Batch) map[string][]columnar.Value {
	t.Helper()
	out := make(map[string][]columnar.Value)
	for i := 0; i < b.NumRows(); i++ {
		row := b.Row(i)
		out[row[0].S] = row[1:]
	}
	return out
}

func TestFinalAggregatorRaw(t *testing.T) {
	f := NewFinalAggregator(salesSpec(), salesSchema())
	f.AddRaw(salesBatch(
		[]string{"eu", "us", "eu", "us", "eu"},
		[]int64{10, 20, 30, 40, 50}))
	res := f.Result()
	if res.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2", res.NumRows())
	}
	by := resultByGroup(t, res)
	eu := by["eu"]
	if eu[0].I != 3 || eu[1].I != 90 || eu[2].I != 10 || eu[3].I != 50 || eu[4].F != 30 {
		t.Errorf("eu aggregates = %v", eu)
	}
	us := by["us"]
	if us[0].I != 2 || us[1].I != 60 {
		t.Errorf("us aggregates = %v", us)
	}
}

func TestPartialThenFinalMatchesDirect(t *testing.T) {
	regions := []string{"a", "b", "c", "a", "b", "a", "c", "c", "c", "b"}
	amounts := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

	direct := NewFinalAggregator(salesSpec(), salesSchema())
	direct.AddRaw(salesBatch(regions, amounts))

	// Two-stage: partial at "storage", final at "compute".
	pa := NewPartialAggregator(salesSpec(), salesSchema(), 0)
	pa.AddRaw(salesBatch(regions[:5], amounts[:5]))
	first := pa.Flush()
	pa.AddRaw(salesBatch(regions[5:], amounts[5:]))
	second := pa.Flush()

	final := NewFinalAggregator(salesSpec(), salesSchema())
	final.AddPartial(first)
	final.AddPartial(second)

	want := resultByGroup(t, direct.Result())
	got := resultByGroup(t, final.Result())
	if len(got) != len(want) {
		t.Fatalf("group count %d != %d", len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		for i := range w {
			if !g[i].Equal(w[i]) {
				t.Errorf("group %s agg %d: %v != %v", k, i, g[i], w[i])
			}
		}
	}
}

func TestThreeStagePipelineMatchesDirect(t *testing.T) {
	// storage -> sending NIC -> receiving NIC -> CPU, all chained on the
	// partial schema (Section 4.4's staged group-by).
	const n = 1000
	rng := sim.NewRNG(3)
	regions := make([]string, n)
	amounts := make([]int64, n)
	names := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"}
	for i := range regions {
		regions[i] = names[rng.Intn(len(names))]
		amounts[i] = int64(rng.Intn(100)) - 50
	}
	direct := NewFinalAggregator(salesSpec(), salesSchema())
	direct.AddRaw(salesBatch(regions, amounts))

	stage1 := NewPartialAggregator(salesSpec(), salesSchema(), 4) // tiny budgets force spills
	stage2 := NewPartialAggregator(salesSpec(), salesSchema(), 6)
	stage3 := NewPartialAggregator(salesSpec(), salesSchema(), 0)
	final := NewFinalAggregator(salesSpec(), salesSchema())

	feed2 := func(b *columnar.Batch) {
		for _, spill := range stage2.AddPartial(b) {
			stage3.AddPartial(spill)
		}
	}
	for i := 0; i < n; i += 100 {
		chunk := salesBatch(regions[i:i+100], amounts[i:i+100])
		for _, spill := range stage1.AddRaw(chunk) {
			feed2(spill)
		}
	}
	if b := stage1.Flush(); b != nil {
		feed2(b)
	}
	if b := stage2.Flush(); b != nil {
		stage3.AddPartial(b)
	}
	if b := stage3.Flush(); b != nil {
		final.AddPartial(b)
	}

	want := resultByGroup(t, direct.Result())
	got := resultByGroup(t, final.Result())
	if len(got) != len(want) {
		t.Fatalf("group count %d != %d", len(got), len(want))
	}
	for k, w := range want {
		for i := range w {
			if !got[k][i].Equal(w[i]) {
				t.Errorf("group %s agg %d: %v != %v", k, i, got[k][i], w[i])
			}
		}
	}
}

func TestPartialAggregatorBudgetSpills(t *testing.T) {
	pa := NewPartialAggregator(salesSpec(), salesSchema(), 2)
	spills := pa.AddRaw(salesBatch(
		[]string{"a", "b", "c", "d"},
		[]int64{1, 2, 3, 4}))
	if len(spills) == 0 {
		t.Fatal("budget of 2 with 4 groups produced no spills")
	}
	if pa.NumGroups() > 2 {
		t.Errorf("held groups = %d, exceeds budget 2", pa.NumGroups())
	}
	var total int64
	for _, s := range spills {
		for i := 0; i < s.NumRows(); i++ {
			total += s.Col(1).Int64s()[i] // a0_cnt column
		}
	}
	if rest := pa.Flush(); rest != nil {
		for i := 0; i < rest.NumRows(); i++ {
			total += rest.Col(1).Int64s()[i]
		}
	}
	if total != 4 {
		t.Errorf("total count across spills+flush = %d, want 4", total)
	}
}

func TestPartialSchemaShape(t *testing.T) {
	ps := PartialSchema(salesSpec(), salesSchema())
	// 1 group col + 5 aggs * 7 state cols.
	if ps.NumFields() != 1+5*7 {
		t.Fatalf("partial schema fields = %d, want 36", ps.NumFields())
	}
	if ps.Fields[0].Name != "region" {
		t.Error("group column not first")
	}
	if ps.Fields[1].Name != "a0_cnt" || ps.Fields[1].Type != columnar.Int64 {
		t.Error("state column layout wrong")
	}
}

func TestScalarAggregationNoGroups(t *testing.T) {
	spec := GroupBy{Aggs: []AggSpec{{Func: Count}, {Func: Sum, Col: 1}}}
	f := NewFinalAggregator(spec, salesSchema())
	f.AddRaw(salesBatch([]string{"x", "y"}, []int64{7, 8}))
	res := f.Result()
	if res.NumRows() != 1 {
		t.Fatalf("scalar agg rows = %d, want 1", res.NumRows())
	}
	if res.Col(0).Int64s()[0] != 2 || res.Col(1).Int64s()[0] != 15 {
		t.Errorf("scalar agg = %v", res.Row(0))
	}
}

func TestGroupKeyNoCollisions(t *testing.T) {
	// Adversarial: string values that would collide under naive joining.
	schema := columnar.NewSchema(
		columnar.Field{Name: "a", Type: columnar.String},
		columnar.Field{Name: "b", Type: columnar.String},
	)
	spec := GroupBy{GroupCols: []int{0, 1}, Aggs: []AggSpec{{Func: Count}}}
	b := columnar.NewBatch(schema, 4)
	b.AppendRow(columnar.StringValue("x|"), columnar.StringValue("y"))
	b.AppendRow(columnar.StringValue("x"), columnar.StringValue("|y"))
	b.AppendRow(columnar.StringValue("x"), columnar.NullValue(columnar.String))
	b.AppendRow(columnar.StringValue("x"), columnar.StringValue(""))
	f := NewFinalAggregator(spec, schema)
	f.AddRaw(b)
	if f.NumGroups() != 4 {
		t.Errorf("groups = %d, want 4 (key collisions?)", f.NumGroups())
	}
}

func TestGroupByRebase(t *testing.T) {
	g := GroupBy{GroupCols: []int{5}, Aggs: []AggSpec{{Func: Count}, {Func: Sum, Col: 7}}}
	r := g.Rebase(func(i int) int { return i - 5 })
	if r.GroupCols[0] != 0 || r.Aggs[1].Col != 2 {
		t.Errorf("Rebase gave %+v", r)
	}
	// Count's column is untouched (it is ignored anyway).
	if r.Aggs[0].Func != Count {
		t.Error("Count spec lost")
	}
}

func TestPredicateRebase(t *testing.T) {
	p := NewAnd(
		NewCmp(3, Gt, columnar.IntValue(10)),
		NewOr(NewBetween(4, 1, 2), NewNot(NewLike(5, "x"))),
	)
	r := Rebase(p, func(i int) int { return i - 3 })
	cols := r.Columns()
	if !equalInts(cols, []int{0, 1, 2}) {
		t.Errorf("rebased columns = %v, want [0 1 2]", cols)
	}
	// Original untouched.
	if !equalInts(p.Columns(), []int{3, 4, 5}) {
		t.Error("Rebase mutated the original predicate")
	}
}

// Property: merging partials computed over any split of the input equals
// aggregating the whole input directly.
func TestPartialSplitProperty(t *testing.T) {
	f := func(amounts []int8, cut uint8) bool {
		if len(amounts) == 0 {
			return true
		}
		regions := make([]string, len(amounts))
		vals := make([]int64, len(amounts))
		for i, a := range amounts {
			regions[i] = []string{"p", "q", "r"}[int(uint8(a))%3]
			vals[i] = int64(a)
		}
		k := int(cut) % len(amounts)

		direct := NewFinalAggregator(salesSpec(), salesSchema())
		direct.AddRaw(salesBatch(regions, vals))

		pa := NewPartialAggregator(salesSpec(), salesSchema(), 0)
		pa.AddRaw(salesBatch(regions[:k], vals[:k]))
		b1 := pa.Flush()
		pa.AddRaw(salesBatch(regions[k:], vals[k:]))
		b2 := pa.Flush()
		final := NewFinalAggregator(salesSpec(), salesSchema())
		if b1 != nil {
			final.AddPartial(b1)
		}
		if b2 != nil {
			final.AddPartial(b2)
		}

		w := direct.Result()
		g := final.Result()
		if w.NumRows() != g.NumRows() {
			return false
		}
		for i := 0; i < w.NumRows(); i++ {
			for c := 0; c < w.NumCols(); c++ {
				if !w.Col(c).Value(i).Equal(g.Col(c).Value(i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Folding rows into groups that already exist allocates nothing, for any
// key and however many chunks the batch spans: the encoded key is scratch
// on the aggregator and the chunk's slot array lives on AddRaw's stack.
func TestAddRawKnownGroupsDoesNotAllocate(t *testing.T) {
	const n = 3000 // three chunks, the last one partial
	regions, amounts := make([]string, n), make([]int64, n)
	sel := columnar.NewBitmap(n)
	for i := range regions {
		regions[i], amounts[i] = []string{"eu", "us", "apac"}[i%3], int64(i%7)
		if i%10 != 0 {
			sel.Set(i)
		}
	}
	long := salesBatch(regions, amounts).WithSelection(sel)
	aggs := []AggSpec{{Func: Count}, {Func: Sum, Col: 1}, {Func: Min, Col: 1}}
	for _, c := range []struct {
		name string
		spec GroupBy
		b    *columnar.Batch
	}{
		{"VARCHAR key, 4 rows", salesSpec(), salesBatch([]string{"eu", "us", "eu", "us"}, []int64{1, 2, 3, 4})},
		{"VARCHAR key, selected 3,000 rows", GroupBy{GroupCols: []int{0}, Aggs: aggs}, long},
		{"BIGINT key, selected 3,000 rows", GroupBy{GroupCols: []int{1}, Aggs: aggs}, long},
		{"two keys, selected 3,000 rows", GroupBy{GroupCols: []int{0, 1}, Aggs: aggs}, long},
	} {
		p := NewPartialAggregator(c.spec, salesSchema(), 0)
		p.AddRaw(c.b)
		if n := testing.AllocsPerRun(10, func() { p.AddRaw(c.b) }); n != 0 {
			t.Errorf("%s: AddRaw over known groups: %v allocs per batch, want 0", c.name, n)
		}
	}
}

// refAgg is the row-at-a-time aggregation AddRaw's two passes replace: per
// selected row it looks the group up by its values, flushes first when a
// new group finds the budget full, then updates every aggregate.
type refAgg struct {
	spec    GroupBy
	in      *columnar.Schema
	max     int
	slot    map[string]int
	vals    [][]columnar.Value
	states  [][]AggState
	flushed []*columnar.Batch
}

func (r *refAgg) addRaw(b *columnar.Batch) {
	for row := 0; row < b.NumRows(); row++ {
		if sel := b.Selection(); sel != nil && !sel.Get(row) {
			continue
		}
		var vals, key []columnar.Value
		for _, c := range r.spec.GroupCols {
			v := b.Col(c).Value(row)
			vals = append(vals, v)
			if v.Type == columnar.Float64 && v.F == 0 {
				v.F = 0 // = does not tell -0.0 from +0.0, so neither does GROUP BY
			}
			key = append(key, v)
		}
		s, ok := r.slot[fmt.Sprint(key)]
		if !ok {
			if r.max > 0 && len(r.vals) >= r.max {
				r.flush()
			}
			s = len(r.vals)
			r.slot[fmt.Sprint(key)] = s
			r.vals, r.states = append(r.vals, vals), append(r.states, make([]AggState, len(r.spec.Aggs)))
		}
		for ai, a := range r.spec.Aggs {
			st := &r.states[s][ai]
			switch {
			case a.Func == Count:
				st.UpdateCountOnly()
			case b.Col(a.Col).IsNull(row):
			case b.Col(a.Col).Type() == columnar.Int64:
				st.UpdateInt(b.Col(a.Col).Int64s()[row])
			case b.Col(a.Col).Type() == columnar.Float64:
				st.UpdateFloat(b.Col(a.Col).Float64s()[row])
			default:
				st.UpdateCountOnly()
			}
		}
	}
}

func (r *refAgg) flush() {
	if len(r.vals) > 0 {
		out := columnar.NewBatch(PartialSchema(r.spec, r.in), len(r.vals))
		for s, vals := range r.vals {
			row := append([]columnar.Value(nil), vals...)
			for _, st := range r.states[s] {
				row = append(row, columnar.IntValue(st.Count), columnar.IntValue(st.SumI), columnar.FloatValue(st.SumF),
					columnar.IntValue(st.MinI), columnar.IntValue(st.MaxI), columnar.FloatValue(st.MinF), columnar.FloatValue(st.MaxF))
			}
			out.AppendRow(row...)
		}
		r.flushed = append(r.flushed, out)
	}
	r.slot, r.vals, r.states = map[string]int{}, nil, nil
}

// sameBits reports whether two values are equal, floats bit for bit.
func sameBits(a, b columnar.Value) bool {
	if a.Type == columnar.Float64 && b.Type == columnar.Float64 && !a.Null && !b.Null {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a.Equal(b)
}

func sameBatchBits(t *testing.T, what string, got, want *columnar.Batch) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: %d×%d, want %d×%d", what, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for r := 0; r < want.NumRows(); r++ {
		for c := 0; c < want.NumCols(); c++ {
			if g, w := got.Col(c).Value(r), want.Col(c).Value(r); !sameBits(g, w) {
				t.Fatalf("%s: row %d column %d = %v, want %v", what, r, c, g, w)
			}
		}
	}
	if got.ByteSize() != want.ByteSize() {
		t.Fatalf("%s: ByteSize %d, want %d", what, got.ByteSize(), want.ByteSize())
	}
}

// AddRaw, Flush and Result agree bit for bit with the row-at-a-time
// reference: BIGINT, VARCHAR, BOOLEAN, DOUBLE, multi-column and no group
// columns, NULL keys and inputs, batches longer than a chunk under random
// selections, and budgets small enough to spill mid-chunk.
func TestAddRawMatchesRowAtATime(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "ki", Type: columnar.Int64}, columnar.Field{Name: "ks", Type: columnar.String},
		columnar.Field{Name: "kb", Type: columnar.Bool}, columnar.Field{Name: "kf", Type: columnar.Float64},
		columnar.Field{Name: "v", Type: columnar.Int64}, columnar.Field{Name: "f", Type: columnar.Float64},
		columnar.Field{Name: "s", Type: columnar.String},
	)
	rng := rand.New(rand.NewSource(29))
	gen := func(n int, keys int64) *columnar.Batch {
		b := columnar.NewBatch(schema, n)
		orNull := func(v columnar.Value) columnar.Value {
			if rng.Intn(9) == 0 {
				return columnar.NullValue(v.Type)
			}
			return v
		}
		for i := 0; i < n; i++ {
			k := rng.Int63n(keys)
			b.AppendRow(orNull(columnar.IntValue(k)), orNull(columnar.StringValue(fmt.Sprint("k", k%5))),
				columnar.BoolValue(k%2 == 0), orNull(columnar.FloatValue([]float64{0, math.Copysign(0, -1), 1.5}[k%3])),
				orNull(columnar.IntValue(rng.Int63n(2000)-1000)), orNull(columnar.FloatValue(rng.NormFloat64()*1e3)),
				columnar.StringValue("x"))
		}
		return b
	}
	numeric := []AggSpec{{Func: Count}, {Func: Sum, Col: 4}, {Func: Sum, Col: 5}, {Func: Min, Col: 4},
		{Func: Max, Col: 5}, {Func: Avg, Col: 5}, {Func: Min, Col: 5}, {Func: Max, Col: 4}}
	for _, c := range []struct {
		name string
		spec GroupBy
	}{
		{"BIGINT key", GroupBy{GroupCols: []int{0}, Aggs: numeric}},
		{"VARCHAR key", GroupBy{GroupCols: []int{1}, Aggs: numeric}},
		{"BOOLEAN key", GroupBy{GroupCols: []int{2}, Aggs: numeric}},
		{"DOUBLE key", GroupBy{GroupCols: []int{3}, Aggs: numeric}},
		{"two keys", GroupBy{GroupCols: []int{1, 0}, Aggs: numeric}},
		{"no group columns", GroupBy{Aggs: numeric}},
		{"VARCHAR input", GroupBy{GroupCols: []int{0}, Aggs: []AggSpec{{Func: Sum, Col: 6}, {Func: Count}}}},
	} {
		for _, budget := range []int{0, 1, 2, 3} {
			what := fmt.Sprintf("%s, budget %d", c.name, budget)
			p := NewPartialAggregator(c.spec, schema, budget)
			f := NewFinalAggregator(c.spec, schema)
			ref := &refAgg{spec: c.spec, in: schema, max: budget, slot: map[string]int{}}
			var got []*columnar.Batch
			for _, n := range []int{0, 1, 1023, 1024, 1025, 2600} {
				b := gen(n, []int64{3, 12}[rng.Intn(2)])
				if keep := rng.Float64(); keep < 0.9 {
					sel := columnar.NewBitmap(n)
					for i := 0; i < n; i++ {
						if rng.Float64() < keep {
							sel.Set(i)
						}
					}
					b = b.WithSelection(sel)
				}
				got = append(got, p.AddRaw(b)...)
				f.AddRaw(b)
				ref.addRaw(b)
			}
			if budget == 0 && c.spec.Aggs[0].Func == Count {
				want := columnar.NewBatch(c.spec.OutputSchema(schema), len(ref.vals))
				for s, vals := range ref.vals {
					row := append([]columnar.Value(nil), vals...)
					for ai, a := range c.spec.Aggs {
						typ := columnar.Int64
						if a.Func != Count {
							typ = schema.Fields[a.Col].Type
						}
						row = append(row, ref.states[s][ai].Result(a.Func, typ))
					}
					want.AppendRow(row...)
				}
				sameGroups(t, what+": Result", f.Result(), want, len(c.spec.GroupCols))
			}
			if last := p.Flush(); last != nil {
				got = append(got, last)
			}
			ref.flush()
			if len(got) != len(ref.flushed) {
				t.Fatalf("%s: %d partial batches, want %d", what, len(got), len(ref.flushed))
			}
			for i := range got {
				sameBatchBits(t, fmt.Sprintf("%s: partial batch %d", what, i), got[i], ref.flushed[i])
			}
		}
	}
}

// sameGroups compares two results as sets of groups, the first ng columns
// being the group key: Result orders groups by their encoded key.
func sameGroups(t *testing.T, what string, got, want *columnar.Batch, ng int) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d groups, want %d", what, got.NumRows(), want.NumRows())
	}
	byKey := map[string][]columnar.Value{}
	for r := 0; r < want.NumRows(); r++ {
		row := want.Row(r)
		byKey[fmt.Sprintf("%#v", row[:ng])] = row
	}
	for r := 0; r < got.NumRows(); r++ {
		row := got.Row(r)
		w, ok := byKey[fmt.Sprintf("%#v", row[:ng])]
		if !ok {
			t.Fatalf("%s: group %v not in the reference", what, row[:ng])
		}
		for c := range w {
			if !sameBits(row[c], w[c]) {
				t.Fatalf("%s: group %v column %d = %v, want %v", what, row[:ng], c, row[c], w[c])
			}
		}
	}
}
