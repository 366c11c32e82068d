package columnar

import (
	"fmt"
	"sync/atomic"
)

// Batch is a horizontal slice of a table: one vector per schema column,
// all the same length. Batches are the unit of flow through pipelines.
//
// The row count is stored explicitly so column-less batches (a schema
// with zero fields, or a projection down to zero columns) still report
// how many rows they stand for. For batches with columns the vectors
// remain authoritative.
//
// A batch's vectors are not written once the batch is built, until it is
// released: AppendRow is the only mutation, and nothing writes through
// Col(i) or a typed accessor's slice. That is what lets ByteSize keep its
// answer, and lets one decoded batch be read by concurrent queries
// (Volcano's buffer pool).
//
// A batch handed to a stage is the stage's: it forwards the batch or a
// view of it (WithSelection, Project, Slice), and ownership with it, or
// ends it with Release, after which nothing reads either. Only a batch a
// scan leased from a Pool gives anything back; any other releases as a
// no-op, so a shared or client-owned batch is left intact. The views of a
// leased batch and the selections made for it (NewSelection) are made in
// storage its lease owns, reused for the next set once this one is back.
type Batch struct {
	schema *Schema
	cols   []*Vector
	rows   int
	// sel, when non-nil, marks the live rows of the batch (a selection
	// vector, one bit per physical row, as a filter leaves it). Operators
	// that can work sparsely consult it via Selection/LiveRows; dense
	// stage boundaries (sort, join build, ship-over-link) call Compact to
	// materialize the surviving rows. ByteSize counts live rows only.
	sel *Bitmap
	// size is ByteSize plus one once it has been computed, zero before:
	// every meter a batch passes reads one walk. It is atomic because a
	// shared batch may be sized by several queries at once; AppendRow
	// resets it.
	size atomic.Int64
	// lease, when non-nil, is the pooled decoded set the batch's vectors
	// belong to; views of the batch share it and are made in it.
	lease *lease
}

// NewBatch returns an empty batch for the schema with per-column capacity
// hint capacity.
func NewBatch(schema *Schema, capacity int) *Batch {
	cols := make([]*Vector, schema.NumFields())
	for i, f := range schema.Fields {
		cols[i] = NewVector(f.Type, capacity)
	}
	return &Batch{schema: schema, cols: cols}
}

// BatchOf assembles a batch from pre-built vectors. All vectors must have
// the same length and match the schema's types. A zero-field schema
// yields an empty batch; use ZeroColumnBatch to carry a row count
// without columns.
func BatchOf(schema *Schema, cols ...*Vector) *Batch {
	if len(cols) != schema.NumFields() {
		panic(fmt.Sprintf("columnar: BatchOf got %d vectors for %d fields", len(cols), schema.NumFields()))
	}
	n := -1
	for i, c := range cols {
		if c.Type() != schema.Fields[i].Type {
			panic(fmt.Sprintf("columnar: column %d is %v, schema wants %v", i, c.Type(), schema.Fields[i].Type))
		}
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			panic(fmt.Sprintf("columnar: column %d has %d rows, expected %d", i, c.Len(), n))
		}
	}
	if n == -1 {
		n = 0
	}
	return &Batch{schema: schema, cols: cols, rows: n}
}

// ZeroColumnBatch returns a column-less batch that stands for rows rows,
// e.g. the carrier for a COUNT(*)-only scan where no column data needs
// to move.
func ZeroColumnBatch(schema *Schema, rows int) *Batch {
	if schema.NumFields() != 0 {
		panic(fmt.Sprintf("columnar: ZeroColumnBatch wants a zero-field schema, got %d fields", schema.NumFields()))
	}
	if rows < 0 {
		panic("columnar: ZeroColumnBatch with negative row count")
	}
	return &Batch{schema: schema, rows: rows}
}

// Schema returns the batch's schema.
func (b *Batch) Schema() *Schema { return b.schema }

// NumRows reports the number of rows. Batches with columns answer from
// their vectors; column-less batches answer from the stored row count.
func (b *Batch) NumRows() int {
	if len(b.cols) == 0 {
		return b.rows
	}
	return b.cols[0].Len()
}

// NumCols reports the number of columns.
func (b *Batch) NumCols() int { return len(b.cols) }

// Col returns column i.
func (b *Batch) Col(i int) *Vector { return b.cols[i] }

// AppendRow appends one row of dynamically typed values. The value types
// must match the schema.
func (b *Batch) AppendRow(vals ...Value) {
	if len(vals) != len(b.cols) {
		panic(fmt.Sprintf("columnar: AppendRow got %d values for %d columns", len(vals), len(b.cols)))
	}
	for i, v := range vals {
		b.cols[i].AppendValue(v)
	}
	b.rows++
	b.size.Store(0)
}

// Row materializes row i as a slice of dynamically typed values. This is
// the row view used by result printing and the HTAP transposition path;
// operators use column accessors instead.
func (b *Batch) Row(i int) []Value {
	out := make([]Value, len(b.cols))
	for c, col := range b.cols {
		out[c] = col.Value(i)
	}
	return out
}

// Project returns a batch containing only the columns at the given
// indices. Column storage is shared, not copied; a lazy selection
// vector is carried along.
func (b *Batch) Project(indices []int) *Batch {
	out, cols := b.lease.view(len(indices), false)
	for i, idx := range indices {
		cols[i] = b.cols[idx]
	}
	*out = Batch{schema: b.schema.Project(indices), cols: cols, rows: b.NumRows(), sel: b.sel, lease: b.lease}
	return out
}

// WithSelection returns a view of b whose live rows are the set bits of
// sel. Column storage is shared. sel must match the physical row count;
// nil clears the selection (all rows live).
func (b *Batch) WithSelection(sel *Bitmap) *Batch {
	if sel != nil && sel.Len() != b.NumRows() {
		panic("columnar: WithSelection length mismatch")
	}
	out, _ := b.lease.view(0, false)
	*out = Batch{schema: b.schema, cols: b.cols, rows: b.rows, sel: sel, lease: b.lease}
	return out
}

// NewSelection returns a bitmap of b's rows, all clear, for a predicate
// to set the rows it selects in. A leased batch's comes from its lease
// and goes back with the set; any other's is NewBitmap's.
func (b *Batch) NewSelection() *Bitmap { return b.lease.selection(b.NumRows()) }

// Selection returns the batch's lazy selection vector, or nil when every
// physical row is live.
func (b *Batch) Selection() *Bitmap { return b.sel }

// LiveRows reports the number of selected rows: NumRows when no
// selection vector is attached.
func (b *Batch) LiveRows() int {
	if b.sel == nil {
		return b.NumRows()
	}
	return b.sel.Count()
}

// Compact materializes the lazy selection: it returns a dense batch
// holding only the live rows, with no selection vector attached. Dense
// stage boundaries (sort, join build, ship-over-link, sinks) call this
// before walking physical rows. A batch without a selection is returned
// unchanged. The dense batch keeps b's size when b has been sized: a
// selected batch's size is its live rows'.
func (b *Batch) Compact() *Batch {
	if b.sel == nil {
		return b
	}
	var out *Batch
	if count := b.sel.Count(); count == b.NumRows() {
		out, _ = b.lease.view(0, false)
		*out = Batch{schema: b.schema, cols: b.cols, rows: b.rows, lease: b.lease}
	} else {
		out = b.filter(b.sel, count)
	}
	out.size.Store(b.size.Load())
	return out
}

// CompactOwned is Compact at a dense boundary that owns b: when the live
// rows had to be copied out, b's own vectors are dead there, and b is
// released.
func (b *Batch) CompactOwned() *Batch {
	out := b.Compact()
	if out.lease == nil {
		b.Release()
	}
	return out
}

// Share readies b to be cut into n views (Slice) that are released one
// by one: its lease then waits for n releases instead of one.
func (b *Batch) Share(n int) {
	if b.lease != nil {
		b.lease.refs.Add(int32(n - 1))
	}
}

// Release ends b's life: its owner will read neither b nor a view of it
// again. A batch without a lease is left as it is. A leased one forgets
// its size, and the last release of a decoded set gives its arrays back
// to the pool.
func (b *Batch) Release() {
	l := b.lease
	if l == nil {
		return
	}
	b.lease = nil
	b.size.Store(0)
	if l.refs.Add(-1) == 0 {
		l.recycle()
	}
}

// Gather returns a batch with only the rows at the given indices. Like
// Vector.Gather it is kept as the reference Filter is tested against.
func (b *Batch) Gather(indices []int) *Batch {
	cols := make([]*Vector, len(b.cols))
	for i, c := range b.cols {
		cols[i] = c.Gather(indices)
	}
	return &Batch{schema: b.schema, cols: cols, rows: len(indices)}
}

// Filter returns a batch with only the rows whose bit is set in sel.
func (b *Batch) Filter(sel *Bitmap) *Batch {
	if sel.Len() != b.NumRows() {
		panic("columnar: Filter selection length mismatch")
	}
	return b.filter(sel, sel.Count())
}

// filter is Filter given sel's count: every column goes through the one
// word-at-a-time loop (selectValues), so no index slice is built.
func (b *Batch) filter(sel *Bitmap, count int) *Batch {
	cols := make([]*Vector, len(b.cols))
	for i, c := range b.cols {
		cols[i] = c.filter(sel, count)
	}
	return &Batch{schema: b.schema, cols: cols, rows: count}
}

// Slice returns a view of rows [from, to). It shares b's lease: cutting
// one batch into several views calls Share first (see Cut).
func (b *Batch) Slice(from, to int) *Batch {
	out, cols := b.lease.view(len(b.cols), true)
	return b.slice(out, cols, from, to)
}

// slice writes the view of rows [from, to) into out, its vectors into
// the headers cols point to, and returns out.
func (b *Batch) slice(out *Batch, cols []*Vector, from, to int) *Batch {
	for i, c := range b.cols {
		c.slice(cols[i], b.lease, from, to)
	}
	*out = Batch{schema: b.schema, cols: cols, rows: to - from, lease: b.lease}
	return out
}

// Cut hands b to emit in views of at most size rows, in row order, each
// its consumer's to release (Share): b itself when it fits one. A leased
// b's views are its lease's (Slice); an unleased b's are cut from one
// slab of headers for all of them, three allocations however many.
func (b *Batch) Cut(size int, emit func(*Batch) error) error {
	rows, w := b.NumRows(), len(b.cols)
	if rows <= size {
		return emit(b)
	}
	n := (rows + size - 1) / size
	b.Share(n)
	var outs []Batch
	var cols []*Vector
	if b.lease == nil {
		outs, cols = make([]Batch, n), make([]*Vector, n*w)
		vecs := make([]Vector, n*w)
		for i := range cols {
			cols[i] = &vecs[i]
		}
	}
	for i := 0; i < n; i++ {
		from, to := i*size, min((i+1)*size, rows)
		var v *Batch
		if b.lease != nil {
			v = b.Slice(from, to)
		} else {
			v = b.slice(&outs[i], cols[i*w:(i+1)*w:(i+1)*w], from, to)
		}
		if err := emit(v); err != nil {
			return err
		}
	}
	return nil
}

// ByteSize estimates the in-memory footprint of all column data in bytes.
// This is the payload size the fabric charges when a batch crosses a link.
// A batch with a selection is the size of its live rows — exactly
// Compact().ByteSize(), without building the compacted batch — so a
// selection never changes what a meter is charged. The first call walks
// the columns; later calls return what it found.
func (b *Batch) ByteSize() int64 {
	if s := b.size.Load(); s != 0 {
		return s - 1
	}
	count := -1
	if b.sel != nil {
		if c := b.sel.Count(); c < b.NumRows() {
			count = c
		}
	}
	var n int64
	for _, c := range b.cols {
		if count < 0 {
			n += c.ByteSize()
		} else {
			n += c.selectedByteSize(b.sel, count)
		}
	}
	b.size.Store(n + 1)
	return n
}

// Clone returns a deep copy of the batch (fresh vectors, copied values).
func (b *Batch) Clone() *Batch {
	out := NewBatch(b.schema, b.NumRows())
	for i := 0; i < b.NumRows(); i++ {
		for c := range b.cols {
			out.cols[c].AppendValue(b.cols[c].Value(i))
		}
	}
	out.rows = b.NumRows()
	return out
}

// RowMajor converts the batch to row-major form: a slice of rows, each a
// slice of values. This is the "recent" (OLTP-friendly) format in the
// paper's HTAP transposition discussion (Section 5.4).
func (b *Batch) RowMajor() [][]Value {
	rows := make([][]Value, b.NumRows())
	for i := range rows {
		rows[i] = b.Row(i)
	}
	return rows
}
