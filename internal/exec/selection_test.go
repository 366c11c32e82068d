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

// TestLazyFilterCarriesSelection checks that the filter emits the input's
// physical rows untouched with a selection vector attached, instead of
// copying survivors.
func TestLazyFilterCarriesSelection(t *testing.T) {
	in := kvBatch([]int64{1, 2, 3, 4}, []int64{10, 20, 30, 40})
	s := &FilterStage{Pred: expr.NewCmp(1, expr.Ge, columnar.IntValue(25))}
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
		t.Fatal("filter copied column storage")
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

// TestLazyFilterChainNarrowsSelection checks that chained filters AND
// their selections: the second filter must not resurrect rows the first
// dropped.
func TestLazyFilterChainNarrowsSelection(t *testing.T) {
	in := kvBatch([]int64{1, 2, 3, 4, 5, 6}, []int64{10, 20, 30, 40, 50, 60})
	f1 := &FilterStage{Pred: expr.NewCmp(1, expr.Ge, columnar.IntValue(25))}
	f2 := &FilterStage{Pred: expr.NewCmp(0, expr.Le, columnar.IntValue(5))}
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

// copyingFilter is the filter as it was before it handed on a selection:
// it copies the survivors into a dense batch.
type copyingFilter struct{ pred expr.Predicate }

func (s *copyingFilter) Name() string { return "copying-filter" }
func (s *copyingFilter) Process(b *columnar.Batch, emit flow.Emit) error {
	if out := b.Filter(s.pred.Eval(b)); out.NumRows() > 0 {
		return emit(out)
	}
	return nil
}
func (s *copyingFilter) Flush(flow.Emit) error { return nil }

// selectionProbe passes batches through and counts those that arrive
// under a selection.
type selectionProbe struct{ selected, batches int }

func (s *selectionProbe) Name() string { return "probe" }
func (s *selectionProbe) Process(b *columnar.Batch, emit flow.Emit) error {
	s.batches++
	if b.Selection() != nil {
		s.selected++
	}
	return emit(b)
}
func (s *selectionProbe) Flush(flow.Emit) error { return nil }

// TestLazyFilterPipelineCompactsAtLink runs the filter, a projection and
// a sort, the sort's input crossing a wire, against the same pipeline with
// a filter that copies its survivors: every port carries the same bytes,
// although the on-device handoff out of the filter still carries a
// selection and only the wire crossing compacts.
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
	run := func(filter, probe flow.Stage) flow.Result {
		link := &fabric.Link{Name: "wire", A: "a", B: "b", Bandwidth: sim.GBPerSec, Latency: sim.Microsecond}
		p := &flow.Pipeline{
			Name:   "sel",
			Source: mkSource(),
			Stages: []flow.Placed{
				{Stage: filter},
				{Stage: probe},
				{Stage: &ProjectStage{Columns: []int{0}}},
				{Stage: &SortStage{ByCol: 0}},
			},
			// filter, probe and project hand off on-device; the sort input
			// crosses the wire.
			Paths: [][]*fabric.Link{nil, nil, nil, {link}},
		}
		res, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	onDevice := &selectionProbe{}
	selected := run(&FilterStage{Pred: pred}, onDevice)
	copied := run(&copyingFilter{pred: pred}, &selectionProbe{})
	if selected.SinkRows != copied.SinkRows || selected.SinkRows != 40 {
		t.Fatalf("sink rows %d under a selection, %d copied; want 40", selected.SinkRows, copied.SinkRows)
	}
	for i := range copied.Ports {
		if selected.Ports[i].Bytes != copied.Ports[i].Bytes {
			t.Errorf("port %d: %v under a selection, %v copied", i, selected.Ports[i].Bytes, copied.Ports[i].Bytes)
		}
	}
	if onDevice.batches != 4 || onDevice.selected != 4 {
		t.Errorf("%d of %d on-device batches carry a selection, want 4 of 4", onDevice.selected, onDevice.batches)
	}
}
