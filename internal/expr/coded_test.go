package expr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/columnar"
)

// codeAgainst codes the String vector v against dict, which holds every
// value of v, "" included where v has a NULL: the coded vector a DICT
// segment with that dictionary decodes to.
func codeAgainst(v *columnar.Vector, dict []string) *columnar.Vector {
	codes := make([]int32, v.Len())
	for i := range codes {
		codes[i] = int32(slices.Index(dict, v.StringAt(i)))
		if codes[i] < 0 {
			panic(fmt.Sprintf("value %q not in the dictionary", v.StringAt(i)))
		}
	}
	out := columnar.FromCodes(codes, dict)
	if nulls := v.Nulls(); nulls != nil {
		out.SetNulls(nulls.Clone())
	}
	return out
}

// withColumn is b with column c replaced by v.
func withColumn(b *columnar.Batch, c int, v *columnar.Vector) *columnar.Batch {
	cols := make([]*columnar.Vector, b.NumCols())
	for i := range cols {
		cols[i] = b.Col(i)
	}
	cols[c] = v
	out := columnar.BatchOf(b.Schema(), cols...)
	if sel := b.Selection(); sel != nil {
		out = out.WithSelection(sel)
	}
	return out
}

// Cmp, Like and In on a String column give a coded column and its plain
// twin the same bitmap, and no NULL row is ever in them.
func TestStringPredicatesSameOnCodedAndPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	words := []string{"apple", "banana", "cherry", "", "pineapple", "grape"}
	schema := columnar.NewSchema(columnar.Field{Name: "s", Type: columnar.String})
	plain := columnar.NewBatch(schema, 500)
	for i := 0; i < 500; i++ {
		if rng.Intn(6) == 0 {
			plain.AppendRow(columnar.NullValue(columnar.String))
		} else {
			plain.AppendRow(columnar.StringValue(words[rng.Intn(len(words))]))
		}
	}
	dict := append([]string{"unused"}, words...)
	rng.Shuffle(len(dict), func(i, j int) { dict[i], dict[j] = dict[j], dict[i] })
	coded := columnar.BatchOf(schema, codeAgainst(plain.Col(0), dict))

	var preds []Predicate
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		for _, w := range []string{"banana", "", "zzz", "b"} {
			preds = append(preds, NewCmp(0, op, columnar.StringValue(w)))
		}
	}
	for _, pat := range []string{"apple", "", "an", "zzz"} {
		preds = append(preds, NewLike(0, pat))
	}
	preds = append(preds,
		NewIn(0, columnar.StringValue("apple"), columnar.StringValue("")),
		NewIn(0, columnar.StringValue("zzz")),
		NewIn(0),
		NewNot(NewLike(0, "an")),
	)
	for _, p := range preds {
		got, want := selected(p.Eval(coded)), selected(p.Eval(plain))
		if !equalInts(got, want) {
			t.Fatalf("%s: coded selects %v, plain %v", p, got, want)
		}
		if _, isNot := p.(*Not); isNot {
			continue
		}
		for _, i := range got {
			if plain.Col(0).IsNull(i) {
				t.Fatalf("%s selects NULL row %d", p, i)
			}
		}
	}
}

// GROUP BY on a coded key finds a row's group through a code → slot
// array; it must make the groups, partials and results a plain key makes.
// The two segments' dictionaries give each string a different code, the
// budgets spill in the middle of a batch, a Clone is taken mid-stream and
// carries on beside the original, keys are NULL, and AddPartial folds
// partials whose key is coded too.
func TestGroupByCodedKeyMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.String},
		columnar.Field{Name: "v", Type: columnar.Int64},
		columnar.Field{Name: "f", Type: columnar.Float64},
	)
	keys := []string{"A", "N", "R", "", "O", "F"}
	segment := func(n int) *columnar.Batch {
		b := columnar.NewBatch(schema, n)
		for i := 0; i < n; i++ {
			k := columnar.StringValue(keys[rng.Intn(len(keys))])
			if rng.Intn(9) == 0 {
				k = columnar.NullValue(columnar.String)
			}
			b.AppendRow(k, columnar.IntValue(rng.Int63n(1000)-500), columnar.FloatValue(rng.NormFloat64()))
		}
		return b
	}
	// Each segment's dictionary is its own shuffle of the keys.
	dictionary := func() []string {
		d := slices.Clone(keys)
		rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
		return d
	}
	type pair struct{ plain, coded *columnar.Batch }
	var stream []pair
	for s := 0; s < 2; s++ {
		seg := segment(3000)
		coded := withColumn(seg, 0, codeAgainst(seg.Col(0), dictionary()))
		// Batches are slices of the segment, some under a selection, and the
		// two segments' batches alternate: A B A B A B.
		for k, from := 0, 0; from < 3000; k, from = k+1, from+1100 {
			to := min(from+1100, 3000)
			p, c := seg.Slice(from, to), coded.Slice(from, to)
			if rng.Intn(2) == 0 {
				sel := columnar.NewBitmap(to - from)
				for i := 0; i < to-from; i++ {
					if rng.Intn(4) != 0 {
						sel.Set(i)
					}
				}
				p, c = p.WithSelection(sel), c.WithSelection(sel)
			}
			stream = slices.Insert(stream, min(2*k+s, len(stream)), pair{p, c})
		}
	}
	// The clone is taken after an A batch and first folds that batch again,
	// while the original's last batch is a B one: a remap the two shared
	// would hand the clone B's code → slot array for A's codes.
	const cloneAt = 2

	spec := GroupBy{GroupCols: []int{0}, Aggs: []AggSpec{{Func: Count}, {Func: Sum, Col: 1}, {Func: Min, Col: 2}, {Func: Avg, Col: 2}}}
	for _, budget := range []int{0, 1, 2, 4} {
		what := fmt.Sprintf("budget %d", budget)
		pp, pc := NewPartialAggregator(spec, schema, budget), NewPartialAggregator(spec, schema, budget)
		fp, fc := NewFinalAggregator(spec, schema), NewFinalAggregator(spec, schema)
		var gotP, gotC []*columnar.Batch
		var cloneP, cloneC *PartialAggregator
		for i, b := range stream {
			gotP, gotC = append(gotP, pp.AddRaw(b.plain)...), append(gotC, pc.AddRaw(b.coded)...)
			fp.AddRaw(b.plain)
			fc.AddRaw(b.coded)
			if i == cloneAt {
				cloneP, cloneC = pp.Clone(), pc.Clone()
			}
		}
		for _, p := range []struct {
			agg *PartialAggregator
			out *[]*columnar.Batch
		}{{pp, &gotP}, {pc, &gotC}} {
			if last := p.agg.Flush(); last != nil {
				*p.out = append(*p.out, last)
			}
		}
		if len(gotC) != len(gotP) {
			t.Fatalf("%s: %d partial batches from the coded key, %d from the plain", what, len(gotC), len(gotP))
		}
		for i := range gotP {
			sameBatchBits(t, fmt.Sprintf("%s: partial %d", what, i), gotC[i], gotP[i])
		}
		sameGroups(t, what+": Result", fc.Result(), fp.Result(), 1)

		// The clones fold the rest of the stream once more, from the batch
		// they were taken after: the coded one must end as the plain one.
		for _, b := range stream[cloneAt:] {
			cloneP.AddRaw(b.plain)
			cloneC.AddRaw(b.coded)
		}
		if a, b := cloneC.Flush(), cloneP.Flush(); (a == nil) != (b == nil) || a != nil && a.NumRows() != b.NumRows() {
			t.Fatalf("%s: clones flush differently", what)
		} else if a != nil {
			sameBatchBits(t, what+": clone flush", a, b)
		}

		// AddPartial over the partials, their key coded against one more
		// dictionary.
		if budget == 0 {
			continue
		}
		ap, ac := NewFinalAggregator(spec, schema), NewFinalAggregator(spec, schema)
		d := dictionary()
		for _, part := range gotP {
			ap.AddPartial(part)
			ac.AddPartial(withColumn(part, 0, codeAgainst(part.Col(0), d)))
		}
		sameGroups(t, what+": AddPartial", ac.Result(), ap.Result(), 1)
	}
}

// Over known groups a coded key allocates nothing either, once per
// dictionary the remap has been sized.
func TestAddRawCodedKnownGroupsDoesNotAllocate(t *testing.T) {
	regions, amounts := make([]string, 3000), make([]int64, 3000)
	for i := range regions {
		regions[i], amounts[i] = []string{"eu", "us", "apac"}[i%3], int64(i)
	}
	plain := salesBatch(regions, amounts)
	b := withColumn(plain, 0, codeAgainst(plain.Col(0), []string{"us", "apac", "eu"}))
	p := NewPartialAggregator(salesSpec(), salesSchema(), 0)
	p.AddRaw(b)
	if n := testing.AllocsPerRun(10, func() { p.AddRaw(b) }); n != 0 {
		t.Errorf("AddRaw over known groups with a coded key: %v allocs per batch, want 0", n)
	}
}

// The two zeros of a DOUBLE are equal under =, so they are one group.
func TestGroupByFoldsSignedZeros(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "x", Type: columnar.Float64})
	b := columnar.BatchOf(schema, columnar.FromFloat64s([]float64{0, math.Copysign(0, -1)}))
	if got := selected(NewCmp(0, Eq, columnar.FloatValue(0)).Eval(b)); !equalInts(got, []int{0, 1}) {
		t.Fatalf("x = 0.0 selects %v, want both rows", got)
	}
	spec := GroupBy{GroupCols: []int{0}, Aggs: []AggSpec{{Func: Count}}}
	f := NewFinalAggregator(spec, schema)
	f.AddRaw(b)
	res := f.Result()
	if res.NumRows() != 1 || res.Col(1).Int64s()[0] != 2 {
		t.Fatalf("GROUP BY over 0.0 and -0.0: %d groups, want one of 2 rows", res.NumRows())
	}
}
