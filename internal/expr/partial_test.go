package expr

import (
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

// Folding a row into a group that already exists allocates nothing: the
// group values and their key are scratch on the aggregator.
func TestAddRawKnownGroupsDoesNotAllocate(t *testing.T) {
	p := NewPartialAggregator(salesSpec(), salesSchema(), 0)
	b := salesBatch([]string{"eu", "us", "eu", "us"}, []int64{1, 2, 3, 4})
	p.AddRaw(b)
	if n := testing.AllocsPerRun(10, func() { p.AddRaw(b) }); n != 0 {
		t.Errorf("AddRaw over known groups: %v allocs per batch, want 0", n)
	}
}
