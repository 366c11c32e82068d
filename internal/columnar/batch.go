package columnar

import "fmt"

// Batch is a horizontal slice of a table: one vector per schema column,
// all the same length. Batches are the unit of flow through pipelines.
//
// The row count is stored explicitly so column-less batches (a schema
// with zero fields, or a projection down to zero columns) still report
// how many rows they stand for. For batches with columns the vectors
// remain authoritative.
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
	cols := make([]*Vector, len(indices))
	for i, idx := range indices {
		cols[i] = b.cols[idx]
	}
	return &Batch{schema: b.schema.Project(indices), cols: cols, rows: b.NumRows(), sel: b.sel}
}

// WithSelection returns a view of b whose live rows are the set bits of
// sel. Column storage is shared. sel must match the physical row count;
// nil clears the selection (all rows live).
func (b *Batch) WithSelection(sel *Bitmap) *Batch {
	if sel != nil && sel.Len() != b.NumRows() {
		panic("columnar: WithSelection length mismatch")
	}
	return &Batch{schema: b.schema, cols: b.cols, rows: b.rows, sel: sel}
}

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
// unchanged.
func (b *Batch) Compact() *Batch {
	if b.sel == nil {
		return b
	}
	count := b.sel.Count()
	if count == b.NumRows() {
		return &Batch{schema: b.schema, cols: b.cols, rows: b.rows}
	}
	return b.filter(b.sel, count)
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

// Slice returns a view of rows [from, to).
func (b *Batch) Slice(from, to int) *Batch {
	cols := make([]*Vector, len(b.cols))
	for i, c := range b.cols {
		cols[i] = c.Slice(from, to)
	}
	return &Batch{schema: b.schema, cols: cols, rows: to - from}
}

// ByteSize estimates the in-memory footprint of all column data in bytes.
// This is the payload size the fabric charges when a batch crosses a link.
// A batch with a selection is the size of its live rows — exactly
// Compact().ByteSize(), without building the compacted batch — so a
// selection never changes what a meter is charged.
func (b *Batch) ByteSize() int64 {
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
