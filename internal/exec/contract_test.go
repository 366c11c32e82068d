package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/flow"
	"repro/internal/netsim"
)

// The selection contract: a stage fed a batch under a selection emits
// what it emits for the filtered batch, row for row, and every batch it
// emits has the same ByteSize, which is what the meters charge. Stages
// that walk physical rows compact first; aggregation and counting
// iterate the selection.

func contractSchema() *columnar.Schema {
	return columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Int64},
		columnar.Field{Name: "s", Type: columnar.String},
		columnar.Field{Name: "f", Type: columnar.Float64},
	)
}

// contractBatch has n rows over a small key domain, so groups and join
// matches repeat, with NULLs in the key k, the value v and the string s.
func contractBatch(rng *rand.Rand, n int) *columnar.Batch {
	b := columnar.NewBatch(contractSchema(), n)
	orNull := func(v columnar.Value) columnar.Value {
		if rng.Intn(7) == 0 {
			return columnar.NullValue(v.Type)
		}
		return v
	}
	for i := 0; i < n; i++ {
		b.AppendRow(
			orNull(columnar.IntValue(rng.Int63n(6))),
			orNull(columnar.IntValue(rng.Int63n(100)-50)),
			orNull(columnar.StringValue(fmt.Sprintf("s%d", rng.Intn(4)))),
			columnar.FloatValue(rng.NormFloat64()),
		)
	}
	return b
}

// run feeds st the batches, then flushes it, and returns what it emitted.
func run(t *testing.T, st flow.Stage, in []*columnar.Batch) []*columnar.Batch {
	t.Helper()
	var out []*columnar.Batch
	emit := func(b *columnar.Batch) error { out = append(out, b); return nil }
	for _, b := range in {
		if err := st.Process(b, emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(emit); err != nil {
		t.Fatal(err)
	}
	return out
}

// exchangeStage runs a netsim.Exchange over three destinations and emits,
// at Flush, what each destination received, in the order it was shipped.
type exchangeStage struct {
	ex  *netsim.Exchange
	out []*columnar.Batch
}

func newExchangeStage() flow.Stage {
	s := &exchangeStage{}
	dests := make([]netsim.Destination, 3)
	for i := range dests {
		dests[i].Sink = func(b *columnar.Batch) error { s.out = append(s.out, b); return nil }
	}
	s.ex, _ = netsim.NewExchange(0, dests)
	s.ex.BatchRows = 16
	return s
}

func (s *exchangeStage) Name() string { return s.ex.Name() }
func (s *exchangeStage) Process(b *columnar.Batch, emit flow.Emit) error {
	return s.ex.Process(b, emit)
}
func (s *exchangeStage) Flush(emit flow.Emit) error {
	if err := s.ex.Flush(emit); err != nil {
		return err
	}
	for _, b := range s.out {
		if err := emit(b); err != nil {
			return err
		}
	}
	return nil
}

// buildThenProbe builds a hash table from its input and, at Flush, emits
// a fixed probe's join with it: what the build kept.
type buildThenProbe struct{ exec.BuildStage }

func (s *buildThenProbe) Flush(emit flow.Emit) error {
	probe := columnar.NewBatch(contractSchema(), 6)
	for k := int64(0); k < 6; k++ {
		probe.AppendRow(columnar.IntValue(k), columnar.IntValue(k), columnar.StringValue("p"), columnar.FloatValue(0))
	}
	return emit(s.Table.Probe(probe, 0))
}

// pulled collects its input and, at Flush, pulls it through the Volcano
// operators tree stacks on it and emits what Drain returns.
type pulled struct {
	tree func(exec.Iterator) exec.Iterator
	in   []*columnar.Batch
}

func (s *pulled) Name() string { return "pulled" }
func (s *pulled) Process(b *columnar.Batch, _ flow.Emit) error {
	s.in = append(s.in, b)
	return nil
}
func (s *pulled) Flush(emit flow.Emit) error {
	in := s.in
	out, err := exec.Drain(s.tree(func() (*columnar.Batch, error) {
		if len(in) == 0 {
			return nil, nil
		}
		b := in[0]
		in = in[1:]
		return b, nil
	}))
	if err != nil {
		return err
	}
	for _, b := range out {
		if b.Selection() != nil {
			return fmt.Errorf("Drain returned a batch under a selection")
		}
		if err := emit(b); err != nil {
			return err
		}
	}
	return nil
}

// TestSelectionAwareStages holds every stage in exec, netsim.Exchange and
// the Volcano Limit and Drain to the selection contract, over random,
// empty and full selections of batches with NULLs in their key, value
// and string columns.
func TestSelectionAwareStages(t *testing.T) {
	schema := contractSchema()
	byKey := expr.GroupBy{GroupCols: []int{0}, Aggs: []expr.AggSpec{
		{Func: expr.Count}, {Func: expr.Sum, Col: 1}, {Func: expr.Avg, Col: 3}, {Func: expr.Max, Col: 1}, {Func: expr.Min, Col: 3},
	}}
	byTwo := expr.GroupBy{GroupCols: []int{0, 2}, Aggs: []expr.AggSpec{{Func: expr.Count}, {Func: expr.Sum, Col: 3}}}
	key := encoding.NewStreamKey([]byte("contract"))

	// Inputs other than raw rows: upstream partials and sealed batches.
	partials := func(g expr.GroupBy) func(*columnar.Batch) *columnar.Batch {
		return func(b *columnar.Batch) *columnar.Batch {
			pa := expr.NewPartialAggregator(g, schema, 0)
			pa.AddRaw(b)
			return pa.Flush()
		}
	}
	sealed := func(b *columnar.Batch) *columnar.Batch {
		var blobs []string
		var sealedSchema *columnar.Schema
		enc := &exec.EncryptStage{Key: key}
		for off := 0; off < b.NumRows(); off += 20 {
			for _, s := range run(t, enc, []*columnar.Batch{b.Slice(off, min(off+20, b.NumRows()))}) {
				sealedSchema = s.Schema()
				blobs = append(blobs, s.Col(0).Strings()...)
			}
		}
		return columnar.BatchOf(sealedSchema, columnar.FromStrings(blobs))
	}

	for _, c := range []struct {
		name  string
		stage func() flow.Stage
		input func(*columnar.Batch) *columnar.Batch // nil: raw rows
	}{
		{name: "filter", stage: func() flow.Stage {
			return &exec.FilterStage{Pred: expr.NewCmp(1, expr.Ge, columnar.IntValue(0))}
		}},
		{name: "project", stage: func() flow.Stage { return &exec.ProjectStage{Columns: []int{2, 0}} }},
		{name: "hash", stage: func() flow.Stage { return &exec.HashStage{KeyCol: 0} }},
		{name: "preagg raw", stage: func() flow.Stage {
			return &exec.PreAggStage{Agg: expr.NewPartialAggregator(byKey, schema, 3), Raw: true}
		}},
		{name: "preagg raw, two keys", stage: func() flow.Stage {
			return &exec.PreAggStage{Agg: expr.NewPartialAggregator(byTwo, schema, 5), Raw: true}
		}},
		{name: "preagg merge", input: partials(byKey), stage: func() flow.Stage {
			merge := expr.GroupBy{GroupCols: []int{0}, Aggs: byKey.Aggs}
			return &exec.PreAggStage{Agg: expr.NewPartialAggregator(merge, expr.PartialSchema(byKey, schema), 2)}
		}},
		{name: "finalagg raw", stage: func() flow.Stage {
			return &exec.FinalAggStage{Agg: expr.NewFinalAggregator(byTwo, schema), Raw: true}
		}},
		{name: "finalagg merge", input: partials(byKey), stage: func() flow.Stage {
			return &exec.FinalAggStage{Agg: expr.NewFinalAggregator(byKey, schema)}
		}},
		{name: "count", stage: func() flow.Stage { return &exec.CountStage{} }},
		{name: "sort", stage: func() flow.Stage { return &exec.SortStage{ByCol: 1} }},
		{name: "limit", stage: func() flow.Stage { return &exec.LimitStage{N: 50} }},
		{name: "encrypt", stage: func() flow.Stage { return &exec.EncryptStage{Key: key} }},
		{name: "decrypt", input: sealed, stage: func() flow.Stage { return &exec.DecryptStage{Key: key} }},
		{name: "join build", stage: func() flow.Stage {
			return &buildThenProbe{exec.BuildStage{Table: exec.NewHashTable(schema, 0, 2)}}
		}},
		{name: "join probe", stage: func() flow.Stage {
			ht := exec.NewHashTable(schema, 0, 1)
			ht.Build(contractBatch(rand.New(rand.NewSource(1)), 12))
			return &exec.HashJoinStage{Table: ht, ProbeKey: 0}
		}},
		{name: "exchange", stage: newExchangeStage},
		{name: "volcano drain", stage: func() flow.Stage {
			return &pulled{tree: func(in exec.Iterator) exec.Iterator { return in }}
		}},
		{name: "volcano limit", stage: func() flow.Stage {
			return &pulled{tree: func(in exec.Iterator) exec.Iterator { return exec.Limit(in, 50) }}
		}},
	} {
		rng := rand.New(rand.NewSource(7))
		for _, shape := range []string{"random", "empty", "full"} {
			var selected, filtered []*columnar.Batch
			for range 2 {
				b := contractBatch(rng, 150)
				if c.input != nil {
					b = c.input(b)
				}
				sel := columnar.NewBitmap(b.NumRows())
				for i := 0; i < b.NumRows(); i++ {
					if shape == "full" || shape == "random" && rng.Intn(3) > 0 {
						sel.Set(i)
					}
				}
				selected = append(selected, b.WithSelection(sel))
				filtered = append(filtered, b.Filter(sel))
			}
			what := c.name + ", " + shape
			sameOutput(t, what, run(t, c.stage(), selected), run(t, c.stage(), filtered))
		}
	}
}

// sameOutput compares two stages' outputs batch by batch: the same
// ByteSize and the same live rows.
func sameOutput(t *testing.T, what string, got, want []*columnar.Batch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d batches under a selection, %d filtered", what, len(got), len(want))
	}
	for i := range want {
		if g, w := got[i].ByteSize(), want[i].ByteSize(); g != w {
			t.Fatalf("%s: batch %d is %d bytes under a selection, %d filtered", what, i, g, w)
		}
		g, w := got[i].Compact(), want[i].Compact()
		if g.NumRows() != w.NumRows() {
			t.Fatalf("%s: batch %d has %d rows under a selection, %d filtered", what, i, g.NumRows(), w.NumRows())
		}
		for r := 0; r < w.NumRows(); r++ {
			gr, wr := g.Row(r), w.Row(r)
			for c := range wr {
				if !gr[c].Equal(wr[c]) {
					t.Fatalf("%s: batch %d row %d column %d: %v under a selection, %v filtered", what, i, r, c, gr[c], wr[c])
				}
			}
		}
	}
}
