package exec

import (
	"repro/internal/columnar"
	"repro/internal/expr"
)

// Iterator is the pull-based Volcano interface (batch-at-a-time rather
// than tuple-at-a-time, as in modern variants). Next returns (nil, nil)
// at end of stream. This model is the CPU-centric baseline: every
// operator runs on the compute node's cores and data is pulled up the
// tree.
type Iterator interface {
	Schema() *columnar.Schema
	Next() (*columnar.Batch, error)
}

// SliceScan iterates over pre-materialized batches.
type SliceScan struct {
	schema  *columnar.Schema
	batches []*columnar.Batch
	pos     int
}

// NewSliceScan builds a scan over batches sharing schema.
func NewSliceScan(schema *columnar.Schema, batches []*columnar.Batch) *SliceScan {
	return &SliceScan{schema: schema, batches: batches}
}

// Schema implements Iterator.
func (s *SliceScan) Schema() *columnar.Schema { return s.schema }

// Next implements Iterator.
func (s *SliceScan) Next() (*columnar.Batch, error) {
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.pos]
	s.pos++
	return b, nil
}

// FuncScan adapts a generator function to an Iterator, used to pull from
// sources that produce batches lazily (e.g. buffer-pool reads).
type FuncScan struct {
	schema *columnar.Schema
	next   func() (*columnar.Batch, error)
}

// NewFuncScan wraps next as an iterator.
func NewFuncScan(schema *columnar.Schema, next func() (*columnar.Batch, error)) *FuncScan {
	return &FuncScan{schema: schema, next: next}
}

// Schema implements Iterator.
func (s *FuncScan) Schema() *columnar.Schema { return s.schema }

// Next implements Iterator.
func (s *FuncScan) Next() (*columnar.Batch, error) { return s.next() }

// FilterIter drops rows failing the predicate.
type FilterIter struct {
	In   Iterator
	Pred expr.Predicate
}

// Schema implements Iterator.
func (it *FilterIter) Schema() *columnar.Schema { return it.In.Schema() }

// Next implements Iterator.
func (it *FilterIter) Next() (*columnar.Batch, error) {
	for {
		b, err := it.In.Next()
		if err != nil || b == nil {
			return nil, err
		}
		out := b.Filter(it.Pred.Eval(b))
		if out.NumRows() > 0 {
			return out, nil
		}
	}
}

// ProjectIter keeps only the listed columns.
type ProjectIter struct {
	In      Iterator
	Columns []int
}

// Schema implements Iterator.
func (it *ProjectIter) Schema() *columnar.Schema { return it.In.Schema().Project(it.Columns) }

// Next implements Iterator.
func (it *ProjectIter) Next() (*columnar.Batch, error) {
	b, err := it.In.Next()
	if err != nil || b == nil {
		return nil, err
	}
	return b.Project(it.Columns), nil
}

// HashJoinIter is the blocking Volcano join: the build side is drained
// into a hash table on the first Next, then the probe side streams.
// Workers is the table's build width (same matches, same order at
// every width; see HashTable).
type HashJoinIter struct {
	Build    Iterator
	Probe    Iterator
	BuildKey int
	ProbeKey int
	Workers  int

	table *HashTable
}

// Schema implements Iterator.
func (it *HashJoinIter) Schema() *columnar.Schema {
	return it.Probe.Schema().Concat(it.Build.Schema())
}

// Next implements Iterator.
func (it *HashJoinIter) Next() (*columnar.Batch, error) {
	if it.table == nil {
		it.table = NewHashTable(it.Build.Schema(), it.BuildKey, it.Workers)
		for {
			b, err := it.Build.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			it.table.Build(b)
		}
	}
	for {
		b, err := it.Probe.Next()
		if err != nil || b == nil {
			return nil, err
		}
		out := it.table.Probe(b, it.ProbeKey)
		if out.NumRows() > 0 {
			return out, nil
		}
	}
}

// AggIter drains its input into a full aggregation and emits one result
// batch.
type AggIter struct {
	In   Iterator
	Spec expr.GroupBy

	done bool
}

// Schema implements Iterator.
func (it *AggIter) Schema() *columnar.Schema { return it.Spec.OutputSchema(it.In.Schema()) }

// Next implements Iterator.
func (it *AggIter) Next() (*columnar.Batch, error) {
	if it.done {
		return nil, nil
	}
	agg := expr.NewFinalAggregator(it.Spec, it.In.Schema())
	for {
		b, err := it.In.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		agg.AddRaw(b)
	}
	it.done = true
	return agg.Result(), nil
}

// SortIter drains and sorts by an int64 column ascending (NULLs first).
type SortIter struct {
	In    Iterator
	ByCol int

	done bool
}

// Schema implements Iterator.
func (it *SortIter) Schema() *columnar.Schema { return it.In.Schema() }

// Next implements Iterator.
func (it *SortIter) Next() (*columnar.Batch, error) {
	if it.done {
		return nil, nil
	}
	stage := &SortStage{ByCol: it.ByCol}
	for {
		b, err := it.In.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if err := stage.Process(b, nil); err != nil {
			return nil, err
		}
	}
	it.done = true
	var out *columnar.Batch
	if err := stage.Flush(func(b *columnar.Batch) error { out = b; return nil }); err != nil {
		return nil, err
	}
	return out, nil
}

// LimitIter stops after N rows.
type LimitIter struct {
	In Iterator
	N  int

	seen int
}

// Schema implements Iterator.
func (it *LimitIter) Schema() *columnar.Schema { return it.In.Schema() }

// Next implements Iterator.
func (it *LimitIter) Next() (*columnar.Batch, error) {
	if it.seen >= it.N {
		return nil, nil
	}
	b, err := it.In.Next()
	if err != nil || b == nil {
		return nil, err
	}
	remain := it.N - it.seen
	if b.NumRows() > remain {
		b = b.Slice(0, remain)
	}
	it.seen += b.NumRows()
	return b, nil
}

// Drain pulls an iterator to completion, returning all batches.
func Drain(it Iterator) ([]*columnar.Batch, error) {
	var out []*columnar.Batch
	for {
		b, err := it.Next()
		if err != nil {
			return out, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b)
	}
}
