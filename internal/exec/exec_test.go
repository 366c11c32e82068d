package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/flow"
)

func kvSchema() *columnar.Schema {
	return columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Int64},
	)
}

func kvBatch(ks, vs []int64) *columnar.Batch {
	return columnar.BatchOf(kvSchema(), columnar.FromInt64s(ks), columnar.FromInt64s(vs))
}

// runStage drives a stage with the given batches and collects output.
func runStage(t *testing.T, s flow.Stage, in ...*columnar.Batch) []*columnar.Batch {
	t.Helper()
	var out []*columnar.Batch
	emit := func(b *columnar.Batch) error { out = append(out, b); return nil }
	for _, b := range in {
		if err := s.Process(b, emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(emit); err != nil {
		t.Fatal(err)
	}
	return out
}

func allRows(batches []*columnar.Batch) [][]columnar.Value {
	var rows [][]columnar.Value
	for _, b := range batches {
		for i := 0; i < b.NumRows(); i++ {
			rows = append(rows, b.Row(i))
		}
	}
	return rows
}

func TestFilterStage(t *testing.T) {
	s := &FilterStage{Pred: expr.NewCmp(1, expr.Ge, columnar.IntValue(20))}
	out := runStage(t, s,
		kvBatch([]int64{1, 2, 3}, []int64{10, 20, 30}),
		kvBatch([]int64{4}, []int64{5}), // fully filtered: emits nothing
	)
	for i, b := range out {
		out[i] = b.Compact() // the filter hands on a selection
	}
	rows := allRows(out)
	if len(rows) != 2 || rows[0][0].I != 2 || rows[1][0].I != 3 {
		t.Errorf("rows = %v", rows)
	}
	if s.Name() == "" {
		t.Error("empty Name")
	}
}

func TestProjectStage(t *testing.T) {
	out := runStage(t, &ProjectStage{Columns: []int{1}},
		kvBatch([]int64{1}, []int64{10}))
	if out[0].NumCols() != 1 || out[0].Schema().Fields[0].Name != "v" {
		t.Errorf("schema = %s", out[0].Schema())
	}
}

func TestHashStageAppendsConsistentHashes(t *testing.T) {
	out := runStage(t, &HashStage{KeyCol: 0},
		kvBatch([]int64{7, 7, 8}, []int64{1, 2, 3}))
	b := out[0]
	if b.NumCols() != 3 || b.Schema().Fields[2].Name != "hash" {
		t.Fatalf("schema = %s", b.Schema())
	}
	h := b.Col(2).Int64s()
	if h[0] != h[1] {
		t.Error("equal keys hashed differently")
	}
	if h[0] == h[2] {
		t.Error("different keys collided (suspicious)")
	}
	// The appended hash matches HashValue with the join seed: the
	// receiving NIC pre-computes exactly what the join would.
	want := int64(HashValue(b.Col(0), 0, SeedJoin))
	if h[0] != want {
		t.Errorf("hash = %d, want %d", h[0], want)
	}
}

func TestCountStage(t *testing.T) {
	out := runStage(t, &CountStage{},
		kvBatch([]int64{1, 2}, []int64{1, 2}),
		kvBatch([]int64{3}, []int64{3}))
	if len(out) != 1 || out[0].NumRows() != 1 {
		t.Fatalf("output shape wrong")
	}
	if got := out[0].Col(0).Int64s()[0]; got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
}

func TestPreAggThenFinalStage(t *testing.T) {
	spec := expr.GroupBy{GroupCols: []int{0}, Aggs: []expr.AggSpec{{Func: expr.Count}, {Func: expr.Sum, Col: 1}}}
	pre := &PreAggStage{Agg: expr.NewPartialAggregator(spec, kvSchema(), 2), Raw: true}
	partials := runStage(t, pre,
		kvBatch([]int64{1, 2, 3, 1}, []int64{10, 20, 30, 40}),
		kvBatch([]int64{2, 4}, []int64{50, 60}))

	final := &FinalAggStage{Agg: expr.NewFinalAggregator(spec, kvSchema()), Raw: false}
	results := runStage(t, final, partials...)
	if len(results) != 1 {
		t.Fatalf("final emitted %d batches", len(results))
	}
	res := results[0]
	if res.NumRows() != 4 {
		t.Fatalf("groups = %d, want 4", res.NumRows())
	}
	sums := map[int64]int64{}
	for i := 0; i < res.NumRows(); i++ {
		sums[res.Col(0).Int64s()[i]] = res.Col(2).Int64s()[i]
	}
	want := map[int64]int64{1: 50, 2: 70, 3: 30, 4: 60}
	for k, w := range want {
		if sums[k] != w {
			t.Errorf("sum[%d] = %d, want %d", k, sums[k], w)
		}
	}
}

// A restored pre-aggregation keeps its own stage's group budget, not the
// budget of the stage whose snapshot it restores (a NIC's is 2,796,202
// groups, an NMA's 349,525): after a 100-group snapshot is restored into
// a stage whose budget is 10, the next new group spills the restored
// groups, and the partials, merged, equal one aggregation of every row.
func TestPreAggRestoreKeepsItsOwnBudget(t *testing.T) {
	spec := expr.GroupBy{GroupCols: []int{0}, Aggs: []expr.AggSpec{{Func: expr.Count}, {Func: expr.Sum, Col: 1}}}
	keys, vals := make([]int64, 100), make([]int64, 100)
	for i := range keys {
		keys[i], vals[i] = int64(i), int64(3*i)
	}
	before := kvBatch(keys, vals)
	after := kvBatch([]int64{100, 5, 101}, []int64{7, 8, 9}) // a new group first

	wide := &PreAggStage{Agg: expr.NewPartialAggregator(spec, kvSchema(), 1000), Raw: true}
	var spills []*columnar.Batch
	emit := func(b *columnar.Batch) error { spills = append(spills, b); return nil }
	if err := wide.Process(before, emit); err != nil || len(spills) != 0 {
		t.Fatalf("100 groups under a budget of 1000: %d spills, %v", len(spills), err)
	}
	narrow := &PreAggStage{Agg: expr.NewPartialAggregator(spec, kvSchema(), 10), Raw: true}
	narrow.RestoreState(wide.SnapshotState())
	if got, want := narrow.Name(), "preagg(raw,budget=10)"; got != want {
		t.Errorf("restored stage is %q, want %q", got, want)
	}
	if err := narrow.Process(after, emit); err != nil {
		t.Fatal(err)
	}
	if len(spills) != 1 || spills[0].NumRows() != 100 {
		t.Fatalf("the first new group spilled %d batches, want 1 of the 100 restored groups", len(spills))
	}
	if err := narrow.Flush(emit); err != nil {
		t.Fatal(err)
	}
	got := runStage(t, &FinalAggStage{Agg: expr.NewFinalAggregator(spec, kvSchema())}, spills...)
	want := runStage(t, &FinalAggStage{Agg: expr.NewFinalAggregator(spec, kvSchema()), Raw: true}, before, after)
	if !reflect.DeepEqual(allRows(got), allRows(want)) {
		t.Errorf("merged partials:\n%v\nwant\n%v", allRows(got), allRows(want))
	}
}

func TestSortStage(t *testing.T) {
	schema := kvSchema()
	b := columnar.NewBatch(schema, 4)
	b.AppendRow(columnar.IntValue(3), columnar.IntValue(30))
	b.AppendRow(columnar.NullValue(columnar.Int64), columnar.IntValue(0))
	b.AppendRow(columnar.IntValue(1), columnar.IntValue(10))
	out := runStage(t, &SortStage{ByCol: 0}, b, kvBatch([]int64{2}, []int64{20}))
	rows := allRows(out)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !rows[0][0].Null {
		t.Error("NULL not first")
	}
	for i, w := range []int64{1, 2, 3} {
		if rows[i+1][0].I != w {
			t.Errorf("row %d key = %v, want %d", i+1, rows[i+1][0], w)
		}
	}
}

func TestLimitStage(t *testing.T) {
	out := runStage(t, &LimitStage{N: 4},
		kvBatch([]int64{1, 2, 3}, []int64{1, 2, 3}),
		kvBatch([]int64{4, 5, 6}, []int64{4, 5, 6}),
		kvBatch([]int64{7}, []int64{7}))
	if n := len(allRows(out)); n != 4 {
		t.Errorf("rows = %d, want 4", n)
	}
}

func TestHashTableBuildProbe(t *testing.T) {
	build := kvBatch([]int64{1, 2, 2}, []int64{100, 200, 201})
	table := NewHashTable(kvSchema(), 0, 1)
	table.Build(build)
	if table.Rows() != 3 {
		t.Errorf("Rows = %d", table.Rows())
	}
	probeSchema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "x", Type: columnar.String},
	)
	probe := columnar.BatchOf(probeSchema,
		columnar.FromInt64s([]int64{2, 3, 1}),
		columnar.FromStrings([]string{"a", "b", "c"}))
	out := table.Probe(probe, 0)
	// k=2 matches 2 build rows, k=3 none, k=1 one: 3 output rows.
	if out.NumRows() != 3 {
		t.Fatalf("joined rows = %d, want 3", out.NumRows())
	}
	// Output schema: probe(k,x) then build(k->r_k, v).
	names := []string{"k", "x", "r_k", "v"}
	for i, n := range names {
		if out.Schema().Fields[i].Name != n {
			t.Errorf("field %d = %s, want %s", i, out.Schema().Fields[i].Name, n)
		}
	}
	// Verify a joined value pair.
	for i := 0; i < out.NumRows(); i++ {
		if out.Col(0).Int64s()[i] != out.Col(2).Int64s()[i] {
			t.Error("join key mismatch in output")
		}
	}
}

func TestHashTableNullKeysNeverMatch(t *testing.T) {
	schema := kvSchema()
	build := columnar.NewBatch(schema, 2)
	build.AppendRow(columnar.NullValue(columnar.Int64), columnar.IntValue(1))
	build.AppendRow(columnar.IntValue(5), columnar.IntValue(2))
	table := NewHashTable(schema, 0, 1)
	table.Build(build)
	if table.Rows() != 1 {
		t.Errorf("null build key inserted")
	}
	probe := columnar.NewBatch(schema, 1)
	probe.AppendRow(columnar.NullValue(columnar.Int64), columnar.IntValue(9))
	if out := table.Probe(probe, 0); out.NumRows() != 0 {
		t.Error("null probe key matched")
	}
}

func TestHashTableStringKeys(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "name", Type: columnar.String},
		columnar.Field{Name: "v", Type: columnar.Int64})
	build := columnar.BatchOf(schema,
		columnar.FromStrings([]string{"x", "y"}),
		columnar.FromInt64s([]int64{1, 2}))
	table := NewHashTable(schema, 0, 1)
	table.Build(build)
	probe := columnar.BatchOf(schema,
		columnar.FromStrings([]string{"y", "z"}),
		columnar.FromInt64s([]int64{0, 0}))
	out := table.Probe(probe, 0)
	if out.NumRows() != 1 || out.Col(3).Int64s()[0] != 2 {
		t.Errorf("string join wrong: %d rows", out.NumRows())
	}
}

// TestHashTableWidthsAgree: the partition count is a width, not a
// different table — every width gives byte-identical probe output (rows
// and match order), Rows and MemBytes, over several build batches with
// NULL and duplicate keys.
func TestHashTableWidthsAgree(t *testing.T) {
	intSchema := kvSchema()
	strSchema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.String},
		columnar.Field{Name: "v", Type: columnar.Int64})
	intKey := func(i int) columnar.Value { return columnar.IntValue(int64(i % 7)) }
	strKey := func(i int) columnar.Value { return columnar.StringValue(string(rune('a' + i%7))) }
	for _, tc := range []struct {
		name   string
		schema *columnar.Schema
		key    func(int) columnar.Value
	}{
		{"BIGINT", intSchema, intKey},
		{"VARCHAR", strSchema, strKey},
	} {
		// Rows 0..39 over 7 distinct keys (duplicates), every fifth key NULL.
		side := func(from, to int) *columnar.Batch {
			b := columnar.NewBatch(tc.schema, to-from)
			for i := from; i < to; i++ {
				k := tc.key(i)
				if i%5 == 0 {
					k = columnar.NullValue(tc.schema.Fields[0].Type)
				}
				b.AppendRow(k, columnar.IntValue(int64(i)))
			}
			return b
		}
		builds := []*columnar.Batch{side(0, 17), side(17, 40)}
		probe := side(3, 25)
		var wantRows [][]columnar.Value
		var want *HashTable
		for _, parts := range []int{0, 1, 2, 3, 8} {
			table := NewHashTable(tc.schema, 0, parts)
			for _, b := range builds {
				table.Build(b)
			}
			rows := allRows([]*columnar.Batch{table.Probe(probe, 0)})
			if want == nil {
				want, wantRows = table, rows
				if table.Rows() != 32 || len(rows) == 0 {
					t.Fatalf("%s: Rows = %d, %d joined rows", tc.name, table.Rows(), len(rows))
				}
				continue
			}
			if table.Rows() != want.Rows() || table.MemBytes() != want.MemBytes() {
				t.Errorf("%s parts=%d: Rows %d MemBytes %v, want %d %v", tc.name, parts,
					table.Rows(), table.MemBytes(), want.Rows(), want.MemBytes())
			}
			if !reflect.DeepEqual(rows, wantRows) {
				t.Errorf("%s parts=%d: probe output differs from parts=0", tc.name, parts)
			}
		}
	}
}

func TestHashJoinStageAndBuildStage(t *testing.T) {
	table := NewHashTable(kvSchema(), 0, 1)
	buildStage := &BuildStage{Table: table}
	runStage(t, buildStage, kvBatch([]int64{1, 2}, []int64{10, 20}))
	join := &HashJoinStage{Table: table, ProbeKey: 0}
	out := runStage(t, join,
		kvBatch([]int64{2, 9}, []int64{0, 0}),
		kvBatch([]int64{9}, []int64{0})) // no matches: no emission
	rows := allRows(out)
	if len(rows) != 1 || rows[0][3].I != 20 {
		t.Errorf("rows = %v", rows)
	}
}

// scanOf is a source iterator over pre-built batches.
func scanOf(batches ...*columnar.Batch) Iterator {
	return func() (*columnar.Batch, error) {
		if len(batches) == 0 {
			return nil, nil
		}
		b := batches[0]
		batches = batches[1:]
		return b, nil
	}
}

// keys returns the first column of every row of batches.
func keys(batches []*columnar.Batch) []int64 {
	var ks []int64
	for _, b := range batches {
		ks = append(ks, b.Col(0).Int64s()...)
	}
	return ks
}

// fanStage is a recording stub stage: an input batch with key k emits k
// one-row batches keyed 10k, 10k+1, …; Flush emits flush batches keyed
// 100, 101, …. failOn makes Process fail on that key; failFlush makes
// Flush fail. log records "P<k>" per Process and "F" per Flush.
type fanStage struct {
	flush     int
	failOn    int64
	failFlush bool
	log       []string
}

var (
	errSource  = errors.New("source failed")
	errProcess = errors.New("process failed")
	errFlush   = errors.New("flush failed")
)

func (s *fanStage) Name() string { return "fan" }

func (s *fanStage) Process(b *columnar.Batch, emit flow.Emit) error {
	k := b.Col(0).Int64s()[0]
	s.log = append(s.log, fmt.Sprintf("P%d", k))
	if k == s.failOn {
		return errProcess
	}
	for j := int64(0); j < k; j++ {
		if err := emit(kvBatch([]int64{10*k + j}, []int64{0})); err != nil {
			return err
		}
	}
	return nil
}

func (s *fanStage) Flush(emit flow.Emit) error {
	s.log = append(s.log, "F")
	if s.failFlush {
		return errFlush
	}
	for j := 0; j < s.flush; j++ {
		if err := emit(kvBatch([]int64{int64(100 + j)}, []int64{0})); err != nil {
			return err
		}
	}
	return nil
}

// TestPull pins Pull's contract: a stage that emits nothing for an input
// is pulled through, several outputs per input come back in order, Flush
// runs exactly once and only at end of input, errors from the source,
// Process and Flush are returned, and nothing is pulled after end of
// input.
func TestPull(t *testing.T) {
	for _, tc := range []struct {
		name      string
		in        []int64 // one single-row batch per key
		srcErr    bool    // the source fails after its batches
		flush     int
		failOn    int64
		failFlush bool
		want      []int64
		wantErr   error
		wantLog   string
	}{
		{name: "silent inputs", in: []int64{0, 0, 1, 0}, want: []int64{10}, wantLog: "P0 P0 P1 P0 F"},
		{name: "several per input", in: []int64{2, 3}, want: []int64{20, 21, 30, 31, 32}, wantLog: "P2 P3 F"},
		{name: "flush outputs", in: []int64{1}, flush: 2, want: []int64{10, 100, 101}, wantLog: "P1 F"},
		{name: "empty input", flush: 1, want: []int64{100}, wantLog: "F"},
		{name: "source error", in: []int64{1}, srcErr: true, want: []int64{10}, wantErr: errSource, wantLog: "P1"},
		{name: "process error", in: []int64{1, 9, 1}, failOn: 9, want: []int64{10}, wantErr: errProcess, wantLog: "P1 P9"},
		{name: "flush error", in: []int64{2}, failFlush: true, want: []int64{20, 21}, wantErr: errFlush, wantLog: "P2 F"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pos, pullsAfterEnd := 0, 0
			src := func() (*columnar.Batch, error) {
				if pos > len(tc.in) {
					pullsAfterEnd++
				}
				if pos == len(tc.in) {
					pos++
					if tc.srcErr {
						return nil, errSource
					}
					return nil, nil
				}
				pos++
				return kvBatch([]int64{tc.in[pos-1]}, []int64{0}), nil
			}
			if tc.failOn == 0 {
				tc.failOn = -1
			}
			st := &fanStage{flush: tc.flush, failOn: tc.failOn, failFlush: tc.failFlush}
			it := Pull(src, st)
			out, err := Drain(it)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if got := keys(out); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("keys = %v, want %v", got, tc.want)
			}
			if tc.wantErr == nil {
				// Past the end: no further pull and no second Flush.
				for i := 0; i < 2; i++ {
					if b, err := it(); b != nil || err != nil {
						t.Errorf("call after end = %v, %v", b, err)
					}
				}
				if pullsAfterEnd != 0 {
					t.Errorf("%d pulls after end of input", pullsAfterEnd)
				}
			}
			if got := strings.Join(st.log, " "); got != tc.wantLog {
				t.Errorf("stage calls = %q, want %q", got, tc.wantLog)
			}
		})
	}
}

// TestPullIsLazy: a call pulls only until the stage has emitted, so a
// consumer that stops early leaves the rest of the source unread.
func TestPullIsLazy(t *testing.T) {
	pulls := 0
	src := scanOf(kvBatch([]int64{0}, []int64{0}), kvBatch([]int64{2}, []int64{0}), kvBatch([]int64{1}, []int64{0}))
	it := Pull(func() (*columnar.Batch, error) { pulls++; return src() }, &fanStage{failOn: -1})
	for i, want := range []int64{20, 21} {
		b, err := it()
		if err != nil || b == nil || keys([]*columnar.Batch{b})[0] != want {
			t.Fatalf("call %d = %v, %v; want key %d", i, b, err, want)
		}
		if pulls != 2 {
			t.Errorf("after call %d: %d pulls, want 2", i, pulls)
		}
	}
}

func TestVolcanoPipelineEquivalence(t *testing.T) {
	// The same stages pulled and pushed must agree:
	// SELECT k, COUNT(*), SUM(v) FROM t WHERE v >= 10 GROUP BY k.
	ks := []int64{1, 2, 1, 3, 2, 1, 3, 3}
	vs := []int64{5, 20, 30, 40, 8, 50, 60, 9}
	pred := expr.NewCmp(1, expr.Ge, columnar.IntValue(10))
	spec := expr.GroupBy{GroupCols: []int{0}, Aggs: []expr.AggSpec{{Func: expr.Count}, {Func: expr.Sum, Col: 1}}}

	// Volcano.
	it := scanOf(kvBatch(ks[:4], vs[:4]), kvBatch(ks[4:], vs[4:]))
	it = Pull(it, &FilterStage{Pred: pred})
	it = Pull(it, &FinalAggStage{Agg: expr.NewFinalAggregator(spec, kvSchema()), Raw: true})
	volcanoOut, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}

	// Push pipeline.
	p := &flow.Pipeline{
		Name: "push",
		Source: func(emit flow.Emit) error {
			if err := emit(kvBatch(ks[:4], vs[:4])); err != nil {
				return err
			}
			return emit(kvBatch(ks[4:], vs[4:]))
		},
		Stages: []flow.Placed{
			{Stage: &FilterStage{Pred: pred}},
			{Stage: &FinalAggStage{Agg: expr.NewFinalAggregator(spec, kvSchema()), Raw: true}},
		},
	}
	var pushOut []*columnar.Batch
	if _, err := p.Run(context.Background(), func(b *columnar.Batch) error { pushOut = append(pushOut, b); return nil }); err != nil {
		t.Fatal(err)
	}

	vr := allRows(volcanoOut)
	pr := allRows(pushOut)
	if len(vr) != len(pr) {
		t.Fatalf("row counts differ: %d vs %d", len(vr), len(pr))
	}
	for i := range vr {
		for c := range vr[i] {
			if !vr[i][c].Equal(pr[i][c]) {
				t.Errorf("row %d col %d: %v vs %v", i, c, vr[i][c], pr[i][c])
			}
		}
	}
}

func TestVolcanoJoin(t *testing.T) {
	table := NewHashTable(kvSchema(), 0, 1)
	if _, err := Drain(Pull(scanOf(kvBatch([]int64{1, 2}, []int64{100, 200})), &BuildStage{Table: table})); err != nil {
		t.Fatal(err)
	}
	probe := scanOf(kvBatch([]int64{2, 2, 3}, []int64{1, 2, 3}), kvBatch([]int64{9}, []int64{0}))
	out, err := Drain(Pull(probe, &HashJoinStage{Table: table, ProbeKey: 0}))
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(out)
	if len(out) != 1 || len(rows) != 2 {
		t.Fatalf("joined %d batches, %d rows; want 1 and 2", len(out), len(rows))
	}
	for _, r := range rows {
		if r[3].I != 200 {
			t.Errorf("joined build value = %v", r[3])
		}
	}
}

func TestVolcanoSortLimit(t *testing.T) {
	scan := scanOf(kvBatch([]int64{3, 1, 2}, []int64{0, 0, 0}), kvBatch([]int64{0}, []int64{0}))
	out, err := Drain(Limit(Pull(scan, &SortStage{ByCol: 0}), 2))
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(out)
	if len(rows) != 2 || rows[0][0].I != 0 || rows[1][0].I != 1 {
		t.Errorf("rows = %v", rows)
	}
}

// TestLimitStopsPulling: once n rows have passed, Limit pulls no more.
func TestLimitStopsPulling(t *testing.T) {
	pulls := 0
	src := scanOf(kvBatch([]int64{1, 2}, []int64{0, 0}), kvBatch([]int64{3, 4}, []int64{0, 0}), kvBatch([]int64{5}, []int64{0}))
	out, err := Drain(Limit(func() (*columnar.Batch, error) { pulls++; return src() }, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := keys(out); !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Errorf("keys = %v", got)
	}
	if pulls != 2 {
		t.Errorf("pulls = %d, want 2", pulls)
	}
}

func TestPartitionOfRange(t *testing.T) {
	for n := 1; n <= 17; n++ {
		counts := make([]int, n)
		for i := 0; i < 10000; i++ {
			p := PartitionOf(mix64(uint64(i)), n)
			if p < 0 || p >= n {
				t.Fatalf("partition %d out of [0,%d)", p, n)
			}
			counts[p]++
		}
		// Balance within 3x of ideal for n <= 17.
		for p, c := range counts {
			if c > 3*10000/n+10 {
				t.Errorf("n=%d partition %d got %d of 10000", n, p, c)
			}
		}
	}
}

// Property: HashValue is deterministic and respects equality for int64.
func TestHashValueProperty(t *testing.T) {
	f := func(a, b int64) bool {
		col := columnar.FromInt64s([]int64{a, b, a})
		h0 := HashValue(col, 0, SeedJoin)
		h1 := HashValue(col, 1, SeedJoin)
		h2 := HashValue(col, 2, SeedJoin)
		if h0 != h2 {
			return false
		}
		if a != b && h0 == h1 {
			// 64-bit collision: astronomically unlikely for quick's
			// inputs; treat as failure.
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: join output row count equals the sum over probe rows of
// build-side multiplicity.
func TestJoinCardinalityProperty(t *testing.T) {
	f := func(buildKeys, probeKeys []uint8) bool {
		if len(buildKeys) == 0 {
			buildKeys = []uint8{0}
		}
		bk := make([]int64, len(buildKeys))
		mult := map[int64]int{}
		for i, k := range buildKeys {
			bk[i] = int64(k % 16)
			mult[bk[i]]++
		}
		pk := make([]int64, len(probeKeys))
		want := 0
		for i, k := range probeKeys {
			pk[i] = int64(k % 16)
			want += mult[pk[i]]
		}
		table := NewHashTable(kvSchema(), 0, 1)
		table.Build(kvBatch(bk, make([]int64, len(bk))))
		out := table.Probe(kvBatch(pk, make([]int64, len(pk))), 0)
		return out.NumRows() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
