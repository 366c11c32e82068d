package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/columnar"
)

func sampleBatch() *columnar.Batch {
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "x", Type: columnar.Float64},
		columnar.Field{Name: "s", Type: columnar.String},
		columnar.Field{Name: "b", Type: columnar.Bool},
	)
	b := columnar.NewBatch(schema, 6)
	b.AppendRow(columnar.IntValue(1), columnar.FloatValue(1.5), columnar.StringValue("apple"), columnar.BoolValue(true))
	b.AppendRow(columnar.IntValue(2), columnar.FloatValue(2.5), columnar.StringValue("banana"), columnar.BoolValue(false))
	b.AppendRow(columnar.IntValue(3), columnar.FloatValue(3.5), columnar.StringValue("cherry"), columnar.BoolValue(true))
	b.AppendRow(columnar.IntValue(4), columnar.FloatValue(4.5), columnar.StringValue("grape"), columnar.BoolValue(false))
	b.AppendRow(columnar.NullValue(columnar.Int64), columnar.FloatValue(5.5), columnar.StringValue("pineapple"), columnar.BoolValue(true))
	b.AppendRow(columnar.IntValue(6), columnar.NullValue(columnar.Float64), columnar.NullValue(columnar.String), columnar.NullValue(columnar.Bool))
	return b
}

func selected(sel *columnar.Bitmap) []int { return sel.Indices(nil) }

func TestCmpInt(t *testing.T) {
	b := sampleBatch()
	cases := []struct {
		op   CmpOp
		val  int64
		want []int
	}{
		{Eq, 3, []int{2}},
		{Ne, 3, []int{0, 1, 3, 5}},
		{Lt, 3, []int{0, 1}},
		{Le, 3, []int{0, 1, 2}},
		{Gt, 3, []int{3, 5}},
		{Ge, 3, []int{2, 3, 5}},
	}
	for _, tc := range cases {
		got := selected(NewCmp(0, tc.op, columnar.IntValue(tc.val)).Eval(b))
		if !equalInts(got, tc.want) {
			t.Errorf("k %s %d selected %v, want %v", tc.op, tc.val, got, tc.want)
		}
	}
}

func TestCmpNullNeverMatches(t *testing.T) {
	b := sampleBatch()
	// Row 4 has NULL k: no comparison selects it, not even Ne.
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		sel := NewCmp(0, op, columnar.IntValue(1)).Eval(b)
		if sel.Get(4) {
			t.Errorf("NULL row selected by %s", op)
		}
	}
}

func TestCmpFloatStringBool(t *testing.T) {
	b := sampleBatch()
	if got := selected(NewCmp(1, Gt, columnar.FloatValue(3.0)).Eval(b)); !equalInts(got, []int{2, 3, 4}) {
		t.Errorf("x > 3.0 selected %v", got)
	}
	if got := selected(NewCmp(2, Eq, columnar.StringValue("banana")).Eval(b)); !equalInts(got, []int{1}) {
		t.Errorf("s = banana selected %v", got)
	}
	if got := selected(NewCmp(2, Ge, columnar.StringValue("cherry")).Eval(b)); !equalInts(got, []int{2, 3, 4}) {
		t.Errorf("s >= cherry selected %v", got)
	}
	if got := selected(NewCmp(3, Eq, columnar.BoolValue(true)).Eval(b)); !equalInts(got, []int{0, 2, 4}) {
		t.Errorf("b = true selected %v", got)
	}
	if got := selected(NewCmp(3, Ne, columnar.BoolValue(true)).Eval(b)); !equalInts(got, []int{1, 3}) {
		t.Errorf("b <> true selected %v", got)
	}
	// Ordered comparison on bool never matches.
	if got := selected(NewCmp(3, Lt, columnar.BoolValue(true)).Eval(b)); len(got) != 0 {
		t.Errorf("b < true selected %v, want none", got)
	}
}

func TestBetween(t *testing.T) {
	b := sampleBatch()
	if got := selected(NewBetween(0, 2, 4).Eval(b)); !equalInts(got, []int{1, 2, 3}) {
		t.Errorf("BETWEEN 2 AND 4 selected %v", got)
	}
}

// Between and the BIGINT and DOUBLE arms of Cmp build their selection a
// word at a time without a branch per row: a BIGINT comparison is a range
// test (Ne its complement), a DOUBLE one picks from the three outcomes of
// comparing with the constant, and NULLs are cleared a word at a time.
// Pinned here to Go's operators row by row, at lengths around a word,
// with NULLs (the null bitmap ends at the last NULL, short of the column),
// constants at the ends of BIGINT, lo > hi, and NaN on either side.
func TestNumericPredicatesMatchPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	nan, inf := math.NaN(), math.Inf(1)
	ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge, CmpOp(99)}
	intRef := func(a, b int64, op CmpOp) bool {
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
	floatRef := func(a, b float64, op CmpOp) bool {
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
	for _, n := range []int{0, 1, 63, 64, 65, 130, 1000} {
		schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64}, columnar.Field{Name: "x", Type: columnar.Float64})
		b := columnar.NewBatch(schema, n)
		for i := 0; i < n; i++ {
			k := columnar.IntValue([]int64{math.MinInt64, math.MaxInt64, -1, 0}[rng.Intn(4)])
			if rng.Intn(3) > 0 {
				k = columnar.IntValue(rng.Int63n(20) - 10)
			}
			x := columnar.FloatValue([]float64{nan, inf, -inf, 0, math.Copysign(0, -1)}[rng.Intn(5)])
			if rng.Intn(3) > 0 {
				x = columnar.FloatValue(float64(rng.Intn(9)-4) / 2)
			}
			if i%9 == 4 && i < n*2/3 { // no NULL in the last third
				k, x = columnar.NullValue(columnar.Int64), columnar.NullValue(columnar.Float64)
			}
			b.AppendRow(k, x)
		}
		ks, xs := b.Col(0), b.Col(1)
		check := func(what string, got *columnar.Bitmap, want func(i int) bool) {
			t.Helper()
			if got.Len() != n {
				t.Fatalf("n=%d %s: %d bits", n, what, got.Len())
			}
			count := 0
			for i := 0; i < n; i++ {
				if want(i) {
					count++
				}
				if got.Get(i) != want(i) {
					t.Fatalf("n=%d %s: row %d = %v, want %v", n, what, i, got.Get(i), want(i))
				}
			}
			if got.Count() != count {
				t.Fatalf("n=%d %s: Count %d, want %d", n, what, got.Count(), count)
			}
		}
		for _, op := range ops {
			for _, c := range []int64{math.MinInt64, math.MinInt64 + 1, -3, 0, 7, math.MaxInt64 - 1, math.MaxInt64} {
				check(fmt.Sprintf("k %s %d", op, c), NewCmp(0, op, columnar.IntValue(c)).Eval(b), func(i int) bool {
					return !ks.IsNull(i) && intRef(ks.Int64s()[i], c, op)
				})
			}
			for _, c := range []float64{nan, -inf, inf, 0, math.Copysign(0, -1), 1.5, -2} {
				check(fmt.Sprintf("x %s %v", op, c), NewCmp(1, op, columnar.FloatValue(c)).Eval(b), func(i int) bool {
					return !xs.IsNull(i) && floatRef(xs.Float64s()[i], c, op)
				})
			}
		}
		for _, r := range [][2]int64{{-3, 3}, {3, -3}, {0, 0}, {math.MinInt64, math.MaxInt64}, {math.MaxInt64, math.MinInt64},
			{math.MinInt64, math.MinInt64}, {math.MaxInt64, math.MaxInt64}, {math.MinInt64, -1}, {1, math.MaxInt64}} {
			lo, hi := r[0], r[1]
			check(fmt.Sprintf("k BETWEEN %d AND %d", lo, hi), NewBetween(0, lo, hi).Eval(b), func(i int) bool {
				return !ks.IsNull(i) && ks.Int64s()[i] >= lo && ks.Int64s()[i] <= hi
			})
		}
	}
}

func TestLike(t *testing.T) {
	b := sampleBatch()
	if got := selected(NewLike(2, "apple").Eval(b)); !equalInts(got, []int{0, 4}) {
		t.Errorf("LIKE %%apple%% selected %v", got)
	}
	if got := selected(NewLike(2, "zzz").Eval(b)); len(got) != 0 {
		t.Errorf("LIKE %%zzz%% selected %v", got)
	}
}

func TestBooleanCombinators(t *testing.T) {
	b := sampleBatch()
	ge2 := NewCmp(0, Ge, columnar.IntValue(2))
	le4 := NewCmp(0, Le, columnar.IntValue(4))
	if got := selected(NewAnd(ge2, le4).Eval(b)); !equalInts(got, []int{1, 2, 3}) {
		t.Errorf("AND selected %v", got)
	}
	eq1 := NewCmp(0, Eq, columnar.IntValue(1))
	eq6 := NewCmp(0, Eq, columnar.IntValue(6))
	if got := selected(NewOr(eq1, eq6).Eval(b)); !equalInts(got, []int{0, 5}) {
		t.Errorf("OR selected %v", got)
	}
	if got := selected(NewNot(ge2).Eval(b)); !equalInts(got, []int{0, 4}) {
		// NOT flips the bitmap; the NULL row flips to selected.
		t.Errorf("NOT selected %v", got)
	}
	// Empty AND selects everything.
	if got := NewAnd().Eval(b).Count(); got != 6 {
		t.Errorf("empty AND selected %d rows, want 6", got)
	}
}

// A leased batch's selections come from its lease and are reused once
// the set is back: every predicate, the ones that set bits one row at a
// time included, selects on a batch decoded into a reused set exactly the
// rows it selects on an unleased copy of it, round after round.
func TestPredicatesOnAReusedLeaseMatchUnleased(t *testing.T) {
	const n = 200
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "s", Type: columnar.String},
		columnar.Field{Name: "b", Type: columnar.Bool},
	)
	preds := []Predicate{
		NewCmp(1, Lt, columnar.StringValue("m")),
		NewLike(1, "a"),
		NewIn(1, columnar.StringValue("ab"), columnar.StringValue("zz")),
		NewIn(0, columnar.IntValue(3), columnar.IntValue(7)),
		NewCmp(2, Eq, columnar.BoolValue(true)),
		NewBetween(0, 2, 5),
		NewNot(NewLike(1, "b")),
		NewOr(NewLike(1, "c"), NewCmp(0, Gt, columnar.IntValue(8))),
		NewAnd(),
	}
	rng := rand.New(rand.NewSource(3))
	var pool columnar.Pool
	for round := 0; round < 6; round++ {
		ints, strs, bools := columnar.Values[int64](&pool, n), columnar.Values[string](&pool, n), columnar.Values[bool](&pool, n)
		for i := range ints {
			ints[i], bools[i] = rng.Int63n(10), rng.Intn(2) == 0
			strs[i] = string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
		}
		leased := pool.Lend(schema)
		*leased.Col(0), *leased.Col(1), *leased.Col(2) = *columnar.FromInt64s(ints), *columnar.FromStrings(strs), *columnar.FromBools(bools)
		plain := columnar.BatchOf(schema, columnar.FromInt64s(append([]int64(nil), ints...)),
			columnar.FromStrings(append([]string(nil), strs...)), columnar.FromBools(append([]bool(nil), bools...)))
		for _, p := range preds {
			got, want := selected(p.Eval(leased)), selected(p.Eval(plain))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d, %s: selects %v on a leased batch, %v on its copy", round, p, got, want)
			}
		}
		leased.Release()
	}
}

func TestPredicateColumnsAndString(t *testing.T) {
	p := NewAnd(NewCmp(0, Eq, columnar.IntValue(1)), NewBetween(2, 1, 5), NewCmp(0, Gt, columnar.IntValue(0)))
	cols := p.Columns()
	if !equalInts(cols, []int{0, 2}) {
		t.Errorf("Columns = %v, want [0 2]", cols)
	}
	if p.String() == "" || NewNot(p).String() == "" || NewOr(p).String() == "" {
		t.Error("empty String()")
	}
}

// TestColumnSet pins the one column-set every layer calls (plan's cost
// model, the storage scan, the engine's projection) against a literal
// table.
func TestColumnSet(t *testing.T) {
	// First-use order out of the predicate, 5 before 1: the set sorts.
	filter := NewAnd(NewCmp(5, Eq, columnar.IntValue(1)), NewBetween(1, 1, 5), NewCmp(5, Gt, columnar.IntValue(0)))
	if got := filter.Columns(); !equalInts(got, []int{5, 1}) {
		t.Errorf("And.Columns = %v, want first-use order [5 1]", got)
	}
	sum := &GroupBy{GroupCols: []int{4, 2}, Aggs: []AggSpec{{Func: Sum, Col: 3}, {Func: Count, Col: 7}, {Func: Avg, Col: 2}}}
	if got := sum.Columns(); !equalInts(got, []int{4, 2, 3, 2}) {
		t.Errorf("GroupBy.Columns = %v, want [4 2 3 2] (COUNT reads no column)", got)
	}
	countOnly := &GroupBy{Aggs: []AggSpec{{Func: Count}}}
	for _, tc := range []struct {
		name    string
		numCols int
		filter  Predicate
		g       *GroupBy
		more    []int
		want    []int
	}{
		{"nothing", 8, nil, nil, nil, nil},
		{"filter only", 8, filter, nil, nil, []int{1, 5}},
		{"group-by only", 8, nil, sum, nil, []int{2, 3, 4}},
		{"COUNT-only aggregate", 8, nil, countOnly, nil, nil},
		{"COUNT-only aggregate with filter", 8, filter, countOnly, nil, []int{1, 5}},
		{"overlapping filter, group-by and list", 8, NewCmp(3, Lt, columnar.IntValue(9)), sum, []int{4, 0, 0}, []int{0, 2, 3, 4}},
		{"out of range clipped", 4, filter, sum, []int{-1, 9}, []int{1, 2, 3}},
		{"no columns known", 0, filter, sum, []int{0}, nil},
	} {
		got := ColumnSet(tc.numCols, tc.filter, tc.g, tc.more)
		if !equalInts(got, tc.want) || (tc.want == nil) != (got == nil) {
			t.Errorf("%s: ColumnSet = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestIntRange(t *testing.T) {
	maxI := int64(math.MaxInt64)
	minI := int64(math.MinInt64)
	cases := []struct {
		p      Predicate
		lo, hi int64
		ok     bool
	}{
		{NewBetween(0, 5, 10), 5, 10, true},
		{NewCmp(0, Eq, columnar.IntValue(7)), 7, 7, true},
		{NewCmp(0, Lt, columnar.IntValue(7)), minI, 6, true},
		{NewCmp(0, Le, columnar.IntValue(7)), minI, 7, true},
		{NewCmp(0, Gt, columnar.IntValue(7)), 8, maxI, true},
		{NewCmp(0, Ge, columnar.IntValue(7)), 7, maxI, true},
		{NewCmp(0, Ne, columnar.IntValue(7)), 0, 0, false},
		{NewCmp(1, Eq, columnar.IntValue(7)), 0, 0, false}, // other column
		{NewAnd(NewCmp(0, Ge, columnar.IntValue(3)), NewCmp(0, Le, columnar.IntValue(9))), 3, 9, true},
		{NewLike(0, "x"), 0, 0, false},
	}
	for i, tc := range cases {
		lo, hi, ok := IntRange(tc.p, 0)
		if ok != tc.ok || (ok && (lo != tc.lo || hi != tc.hi)) {
			t.Errorf("case %d (%s): IntRange = [%d,%d] ok=%v, want [%d,%d] ok=%v",
				i, tc.p, lo, hi, ok, tc.lo, tc.hi, tc.ok)
		}
	}
}

func TestAggStateScalar(t *testing.T) {
	var s AggState
	for _, v := range []int64{5, -2, 9, 0} {
		s.UpdateInt(v)
	}
	if got := s.Result(Count, columnar.Int64); got.I != 4 {
		t.Errorf("COUNT = %v", got)
	}
	if got := s.Result(Sum, columnar.Int64); got.I != 12 {
		t.Errorf("SUM = %v", got)
	}
	if got := s.Result(Min, columnar.Int64); got.I != -2 {
		t.Errorf("MIN = %v", got)
	}
	if got := s.Result(Max, columnar.Int64); got.I != 9 {
		t.Errorf("MAX = %v", got)
	}
	if got := s.Result(Avg, columnar.Float64); got.F != 3.0 {
		t.Errorf("AVG = %v", got)
	}
}

func TestAggStateFloat(t *testing.T) {
	var s AggState
	s.UpdateFloat(1.5)
	s.UpdateFloat(2.5)
	if got := s.Result(Sum, columnar.Float64); got.F != 4.0 {
		t.Errorf("SUM = %v", got)
	}
	if got := s.Result(Min, columnar.Float64); got.F != 1.5 {
		t.Errorf("MIN = %v", got)
	}
}

func TestAggStateEmpty(t *testing.T) {
	var s AggState
	if got := s.Result(Count, columnar.Int64); got.I != 0 || got.Null {
		t.Errorf("empty COUNT = %v, want 0", got)
	}
	if got := s.Result(Sum, columnar.Int64); !got.Null {
		t.Errorf("empty SUM = %v, want NULL", got)
	}
	if got := s.Result(Avg, columnar.Float64); !got.Null {
		t.Errorf("empty AVG = %v, want NULL", got)
	}
}

// Property: merging partial states is equivalent to aggregating the
// concatenated input — the invariant staged pre-aggregation relies on.
func TestAggMergeEquivalenceProperty(t *testing.T) {
	f := func(xs, ys []int16) bool {
		var whole, left, right AggState
		for _, v := range xs {
			whole.UpdateInt(int64(v))
			left.UpdateInt(int64(v))
		}
		for _, v := range ys {
			whole.UpdateInt(int64(v))
			right.UpdateInt(int64(v))
		}
		left.Merge(&right)
		for _, fn := range []AggFunc{Count, Sum, Min, Max, Avg} {
			typ := columnar.Int64
			if fn == Avg {
				typ = columnar.Float64
			}
			if !whole.Result(fn, typ).Equal(left.Result(fn, typ)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAggMergeEmptySides(t *testing.T) {
	var empty, full AggState
	full.UpdateInt(5)
	merged := full
	merged.Merge(&empty)
	if merged.Count != 1 || merged.MinI != 5 {
		t.Error("merging empty changed state")
	}
	var dst AggState
	dst.Merge(&full)
	if dst.Count != 1 || dst.MaxI != 5 {
		t.Error("merging into empty lost state")
	}
}

func TestGroupByOutputSchema(t *testing.T) {
	in := columnar.NewSchema(
		columnar.Field{Name: "region", Type: columnar.String},
		columnar.Field{Name: "amount", Type: columnar.Float64},
		columnar.Field{Name: "qty", Type: columnar.Int64},
	)
	g := GroupBy{
		GroupCols: []int{0},
		Aggs: []AggSpec{
			{Func: Count},
			{Func: Sum, Col: 1},
			{Func: Avg, Col: 2},
			{Func: Min, Col: 2},
		},
	}
	out := g.OutputSchema(in)
	wantNames := []string{"region", "count", "sum_amount", "avg_qty", "min_qty"}
	wantTypes := []columnar.Type{columnar.String, columnar.Int64, columnar.Float64, columnar.Float64, columnar.Int64}
	if out.NumFields() != len(wantNames) {
		t.Fatalf("fields = %d, want %d", out.NumFields(), len(wantNames))
	}
	for i := range wantNames {
		if out.Fields[i].Name != wantNames[i] || out.Fields[i].Type != wantTypes[i] {
			t.Errorf("field %d = %v, want %s %v", i, out.Fields[i], wantNames[i], wantTypes[i])
		}
	}
}

func TestAggSpecString(t *testing.T) {
	if (AggSpec{Func: Count}).String() != "COUNT(*)" {
		t.Error("COUNT(*) string wrong")
	}
	if (AggSpec{Func: Sum, Col: 2}).String() != "SUM(col2)" {
		t.Error("SUM string wrong")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
