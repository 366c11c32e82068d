package exec

import (
	"fmt"
	"sort"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/flow"
)

// FilterStage drops rows failing the predicate. Stateless: placeable on
// any device that supports OpFilter.
//
// The stage does not copy survivors into a dense batch: it attaches (or
// narrows) the batch's selection vector and passes the physical rows
// through untouched. Aggregation and counting iterate the selection;
// dense boundaries (sort, join build, a port whose path crosses a link,
// the sink) compact. A selected batch's ByteSize is its live rows' size,
// so no meter sees the difference. This is the paper's
// late-materialization discipline: row movement is deferred until a
// stage actually needs dense data.
type FilterStage struct {
	Pred expr.Predicate
}

// Name implements flow.Stage.
func (s *FilterStage) Name() string { return "filter(" + s.Pred.String() + ")" }

// Process implements flow.Stage.
func (s *FilterStage) Process(b *columnar.Batch, emit flow.Emit) error {
	keep := s.Pred.Eval(b)
	if sel := b.Selection(); sel != nil {
		keep.And(sel)
	}
	out := b.WithSelection(keep)
	if out.LiveRows() == 0 {
		out.Release() // nothing survives: the filter ends the batch
		return nil
	}
	return emit(out)
}

// Flush implements flow.Stage.
func (s *FilterStage) Flush(flow.Emit) error { return nil }

// ProjectStage keeps only the listed columns. Stateless.
type ProjectStage struct {
	Columns []int
}

// Name implements flow.Stage.
func (s *ProjectStage) Name() string { return fmt.Sprintf("project%v", s.Columns) }

// Process implements flow.Stage.
func (s *ProjectStage) Process(b *columnar.Batch, emit flow.Emit) error {
	return emit(b.Project(s.Columns))
}

// Flush implements flow.Stage.
func (s *ProjectStage) Flush(flow.Emit) error { return nil }

// HashStage appends a BIGINT "hash" column computed from KeyCol — the
// receiving-NIC hashing of Figure 3, which pre-computes the hash the
// compute node's join or aggregation would otherwise do.
type HashStage struct {
	KeyCol int
	Seed   hashSeed
}

// Name implements flow.Stage.
func (s *HashStage) Name() string { return fmt.Sprintf("hash(col%d)", s.KeyCol) }

// Process implements flow.Stage.
func (s *HashStage) Process(b *columnar.Batch, emit flow.Emit) error {
	b = b.Compact() // appends a column per physical row: dense boundary
	seed := s.Seed
	if seed == 0 {
		seed = SeedJoin
	}
	hashes := HashColumn(b.Col(s.KeyCol), seed, nil)
	vals := make([]int64, len(hashes))
	for i, h := range hashes {
		vals[i] = int64(h)
	}
	outSchema := b.Schema().Concat(columnar.NewSchema(columnar.Field{Name: "hash", Type: columnar.Int64}))
	cols := make([]*columnar.Vector, b.NumCols()+1)
	for i := 0; i < b.NumCols(); i++ {
		cols[i] = b.Col(i)
	}
	cols[b.NumCols()] = columnar.FromInt64s(vals)
	return emit(columnar.BatchOf(outSchema, cols...))
}

// Flush implements flow.Stage.
func (s *HashStage) Flush(flow.Emit) error { return nil }

// PreAggStage hosts a bounded-state partial aggregation (Section 4.4).
// Raw determines whether the input is raw rows or upstream partials;
// either way the output is partial batches, so stages chain. It reads
// only the selected rows of its input, without compacting.
type PreAggStage struct {
	Agg *expr.PartialAggregator
	Raw bool
}

// Name implements flow.Stage.
func (s *PreAggStage) Name() string {
	kind := "merge"
	if s.Raw {
		kind = "raw"
	}
	return fmt.Sprintf("preagg(%s,budget=%d)", kind, s.Agg.MaxGroups)
}

// Process implements flow.Stage.
func (s *PreAggStage) Process(b *columnar.Batch, emit flow.Emit) error {
	var spills []*columnar.Batch
	if s.Raw {
		spills = s.Agg.AddRaw(b)
	} else {
		spills = s.Agg.AddPartial(b)
	}
	b.Release() // folded: the aggregation ends the batch
	for _, spill := range spills {
		if err := emit(spill); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements flow.Stage.
func (s *PreAggStage) Flush(emit flow.Emit) error {
	if b := s.Agg.Flush(); b != nil {
		return emit(b)
	}
	return nil
}

// SnapshotState implements flow.Snapshotter: a deep copy of the group
// state at the checkpoint marker.
func (s *PreAggStage) SnapshotState() any { return s.Agg.Clone() }

// RestoreState implements flow.Snapshotter. The snapshot is cloned
// again, so one epoch can seed several restart attempts. The stage keeps
// its own group budget: a snapshot taken on another device carries that
// device's.
func (s *PreAggStage) RestoreState(state any) {
	budget := s.Agg.MaxGroups
	s.Agg = state.(*expr.PartialAggregator).Clone()
	s.Agg.MaxGroups = budget
}

// FinalAggStage is the terminal aggregation on the compute node; it
// consumes raw rows or partials, only the selected ones and without
// compacting, and emits one result batch at flush.
type FinalAggStage struct {
	Agg *expr.FinalAggregator
	Raw bool
}

// Name implements flow.Stage.
func (s *FinalAggStage) Name() string { return "finalagg" }

// Process implements flow.Stage.
func (s *FinalAggStage) Process(b *columnar.Batch, emit flow.Emit) error {
	if s.Raw {
		s.Agg.AddRaw(b)
	} else {
		s.Agg.AddPartial(b)
	}
	b.Release()
	return nil
}

// Flush implements flow.Stage.
func (s *FinalAggStage) Flush(emit flow.Emit) error {
	return emit(s.Agg.Result())
}

// SnapshotState implements flow.Snapshotter.
func (s *FinalAggStage) SnapshotState() any { return s.Agg.Clone() }

// RestoreState implements flow.Snapshotter.
func (s *FinalAggStage) RestoreState(state any) {
	s.Agg = state.(*expr.FinalAggregator).Clone()
}

// CountStage counts rows and discards them, emitting a single-row result
// at flush — the query the paper says a NIC can complete "without even
// involving the CPU or transferring data to host memory" (Section 4.4).
type CountStage struct {
	count int64
}

// Name implements flow.Stage.
func (s *CountStage) Name() string { return "count" }

// Process implements flow.Stage.
func (s *CountStage) Process(b *columnar.Batch, emit flow.Emit) error {
	// LiveRows honors a selection without compacting: counting needs no
	// row movement at all.
	s.count += int64(b.LiveRows())
	b.Release()
	return nil
}

// Flush implements flow.Stage.
func (s *CountStage) Flush(emit flow.Emit) error {
	schema := columnar.NewSchema(columnar.Field{Name: "count", Type: columnar.Int64})
	return emit(columnar.BatchOf(schema, columnar.FromInt64s([]int64{s.count})))
}

// SnapshotState implements flow.Snapshotter.
func (s *CountStage) SnapshotState() any { return s.count }

// RestoreState implements flow.Snapshotter.
func (s *CountStage) RestoreState(state any) { s.count = state.(int64) }

// SortStage buffers the whole stream and emits it sorted by ByCol
// (BIGINT, ascending). Sorting is inherently blocking, which is why the
// paper keeps it off the streaming path and on compute nodes.
type SortStage struct {
	ByCol int

	buffered []*columnar.Batch
}

// Name implements flow.Stage.
func (s *SortStage) Name() string { return fmt.Sprintf("sort(col%d)", s.ByCol) }

// Process implements flow.Stage.
func (s *SortStage) Process(b *columnar.Batch, emit flow.Emit) error {
	s.buffered = append(s.buffered, b.Compact()) // sort is a dense boundary
	return nil
}

// Flush implements flow.Stage.
func (s *SortStage) Flush(emit flow.Emit) error {
	if len(s.buffered) == 0 {
		return nil
	}
	type ref struct {
		batch *columnar.Batch
		row   int
		key   int64
		null  bool
	}
	var refs []ref
	for _, b := range s.buffered {
		col := b.Col(s.ByCol)
		for i := 0; i < b.NumRows(); i++ {
			r := ref{batch: b, row: i}
			if col.IsNull(i) {
				r.null = true
			} else {
				r.key = col.Int64s()[i]
			}
			refs = append(refs, r)
		}
	}
	sort.SliceStable(refs, func(i, j int) bool {
		if refs[i].null != refs[j].null {
			return refs[i].null // NULLs first
		}
		return refs[i].key < refs[j].key
	})
	out := columnar.NewBatch(s.buffered[0].Schema(), len(refs))
	for _, r := range refs {
		out.AppendRow(r.batch.Row(r.row)...)
	}
	return emit(out)
}

// SnapshotState implements flow.Snapshotter. Buffered batches are never
// mutated, so the snapshot shares them.
func (s *SortStage) SnapshotState() any {
	return append([]*columnar.Batch(nil), s.buffered...)
}

// RestoreState implements flow.Snapshotter.
func (s *SortStage) RestoreState(state any) {
	s.buffered = append([]*columnar.Batch(nil), state.([]*columnar.Batch)...)
}

// LimitStage forwards at most N rows.
type LimitStage struct {
	N    int
	seen int
}

// Name implements flow.Stage.
func (s *LimitStage) Name() string { return fmt.Sprintf("limit(%d)", s.N) }

// Process implements flow.Stage.
func (s *LimitStage) Process(b *columnar.Batch, emit flow.Emit) error {
	if s.seen >= s.N {
		return nil
	}
	b = b.Compact() // slicing counts physical rows: dense boundary
	remain := s.N - s.seen
	if b.NumRows() > remain {
		b = b.Slice(0, remain)
	}
	s.seen += b.NumRows()
	return emit(b)
}

// Flush implements flow.Stage.
func (s *LimitStage) Flush(flow.Emit) error { return nil }

// SnapshotState implements flow.Snapshotter.
func (s *LimitStage) SnapshotState() any { return s.seen }

// RestoreState implements flow.Snapshotter.
func (s *LimitStage) RestoreState(state any) { s.seen = state.(int) }
