package exec

import (
	"context"
	"testing"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/sim"
)

// TestLazyFilterCarriesSelection checks that a lazy filter emits the
// input's physical rows untouched with a selection vector attached,
// instead of copying survivors.
func TestLazyFilterCarriesSelection(t *testing.T) {
	in := kvBatch([]int64{1, 2, 3, 4}, []int64{10, 20, 30, 40})
	s := &FilterStage{Pred: expr.NewCmp(1, expr.Ge, columnar.IntValue(25)), Lazy: true}
	var out []*columnar.Batch
	if err := s.Process(in, func(b *columnar.Batch) error { out = append(out, b); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("emitted %d batches, want 1", len(out))
	}
	b := out[0]
	if b.NumRows() != 4 {
		t.Fatalf("physical rows = %d, want 4 (no compaction)", b.NumRows())
	}
	if b.Col(0) != in.Col(0) {
		t.Fatal("lazy filter copied column storage")
	}
	if b.LiveRows() != 2 {
		t.Fatalf("LiveRows = %d, want 2", b.LiveRows())
	}
	sel := b.Selection()
	if sel == nil || sel.Get(0) || sel.Get(1) || !sel.Get(2) || !sel.Get(3) {
		t.Fatalf("selection = %v", sel)
	}
	// A fully filtered batch is dropped, not emitted with an empty selection.
	out = out[:0]
	if err := s.Process(kvBatch([]int64{9}, []int64{1}), func(b *columnar.Batch) error {
		out = append(out, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty-result batch emitted: %d", len(out))
	}
}

// TestLazyFilterChainNarrowsSelection checks that chained lazy filters
// AND their selections: the second filter must not resurrect rows the
// first dropped.
func TestLazyFilterChainNarrowsSelection(t *testing.T) {
	in := kvBatch([]int64{1, 2, 3, 4, 5, 6}, []int64{10, 20, 30, 40, 50, 60})
	f1 := &FilterStage{Pred: expr.NewCmp(1, expr.Ge, columnar.IntValue(25)), Lazy: true}
	f2 := &FilterStage{Pred: expr.NewCmp(0, expr.Le, columnar.IntValue(5)), Lazy: true}
	var mid, out []*columnar.Batch
	if err := f1.Process(in, func(b *columnar.Batch) error { mid = append(mid, b); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := f2.Process(mid[0], func(b *columnar.Batch) error { out = append(out, b); return nil }); err != nil {
		t.Fatal(err)
	}
	got := out[0].Compact()
	// Dense reference: same predicates, eager copies.
	want := in.Filter(expr.NewAnd(
		expr.NewCmp(1, expr.Ge, columnar.IntValue(25)),
		expr.NewCmp(0, expr.Le, columnar.IntValue(5)),
	).Eval(in))
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	for i := 0; i < want.NumRows(); i++ {
		if got.Col(0).Int64s()[i] != want.Col(0).Int64s()[i] {
			t.Fatalf("row %d: %d want %d", i, got.Col(0).Int64s()[i], want.Col(0).Int64s()[i])
		}
	}
}

// TestSelectionAwareStages checks each dense-boundary consumer against
// its dense-input behaviour when fed a lazily selected batch.
func TestSelectionAwareStages(t *testing.T) {
	in := kvBatch([]int64{5, 1, 4, 2, 3}, []int64{50, 10, 40, 20, 30})
	sel := columnar.NewBitmap(5)
	sel.Set(0)
	sel.Set(2)
	sel.Set(4) // keep k=5,4,3
	lazy := in.WithSelection(sel)
	dense := lazy.Compact()

	check := func(name string, mk func() flow.Stage) {
		lazyRows := allRows(runStage(t, mk(), lazy))
		denseRows := allRows(runStage(t, mk(), dense))
		if len(lazyRows) != len(denseRows) {
			t.Fatalf("%s: %d rows lazy vs %d dense", name, len(lazyRows), len(denseRows))
		}
		for i := range lazyRows {
			for c := range lazyRows[i] {
				if !lazyRows[i][c].Equal(denseRows[i][c]) {
					t.Fatalf("%s: row %d col %d: %v vs %v", name, i, c, lazyRows[i][c], denseRows[i][c])
				}
			}
		}
	}
	check("count", func() flow.Stage { return &CountStage{} })
	check("sort", func() flow.Stage { return &SortStage{ByCol: 0} })
	check("limit", func() flow.Stage { return &LimitStage{N: 2} })
	check("hash", func() flow.Stage { return &HashStage{KeyCol: 0} })
	check("join", func() flow.Stage {
		ht := NewHashTable(kvSchema(), 0, 1)
		ht.Build(kvBatch([]int64{4, 3}, []int64{400, 300}))
		return &HashJoinStage{Table: ht, ProbeKey: 0}
	})
	// Join build: a lazily selected build side must only insert live rows.
	ht := NewHashTable(kvSchema(), 0, 1)
	bs := &BuildStage{Table: ht}
	runStage(t, bs, lazy)
	if ht.Rows() != 3 {
		t.Fatalf("build inserted %d rows, want 3", ht.Rows())
	}
}

// TestLazyFilterPipelineCompactsAtLink runs a full pipeline where the
// lazy filter hands off on-device to a count stage, and a second
// pipeline where the filtered stream crosses a link: the link must be
// charged for compacted survivors only.
func TestLazyFilterPipelineCompactsAtLink(t *testing.T) {
	mkSource := func() flow.Source {
		return func(emit flow.Emit) error {
			for i := 0; i < 4; i++ {
				ks := make([]int64, 100)
				vs := make([]int64, 100)
				for j := range ks {
					ks[j] = int64(i*100 + j)
					vs[j] = int64(j)
				}
				if err := emit(kvBatch(ks, vs)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	pred := expr.NewCmp(1, expr.Lt, columnar.IntValue(10)) // 10% pass
	run := func(lazy bool) flow.Result {
		link := &fabric.Link{Name: "wire", A: "a", B: "b", Bandwidth: sim.GBPerSec, Latency: sim.Microsecond}
		p := &flow.Pipeline{
			Name:   "sel",
			Source: mkSource(),
			Stages: []flow.Placed{
				{Stage: &FilterStage{Pred: pred, Lazy: lazy}},
				{Stage: &ProjectStage{Columns: []int{0}}},
				{Stage: &SortStage{ByCol: 0}},
			},
			// filter and project hand off on-device; the sort input
			// crosses the wire.
			Paths: [][]*fabric.Link{nil, nil, {link}},
		}
		res, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lazyRes := run(true)
	denseRes := run(false)
	if lazyRes.SinkRows != denseRes.SinkRows || lazyRes.SinkRows != 40 {
		t.Fatalf("sink rows lazy %d dense %d, want 40", lazyRes.SinkRows, denseRes.SinkRows)
	}
	// Port 2 (the wire crossing) must carry identical compacted bytes in
	// both modes: lazy batches compact at Send.
	if lazyRes.Ports[2].Bytes != denseRes.Ports[2].Bytes {
		t.Fatalf("wire bytes lazy %v dense %v", lazyRes.Ports[2].Bytes, denseRes.Ports[2].Bytes)
	}
	// Port 1 (on-device handoff out of the lazy filter) carries the full
	// physical batches in lazy mode — that is the deferred copy.
	if lazyRes.Ports[1].Bytes <= denseRes.Ports[1].Bytes {
		t.Fatalf("on-device bytes lazy %v dense %v: lazy should defer compaction",
			lazyRes.Ports[1].Bytes, denseRes.Ports[1].Bytes)
	}
}
