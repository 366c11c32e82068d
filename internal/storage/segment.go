// Package storage implements the disaggregated storage layer of the
// paper's Section 3: an object store holding encoded columnar segments
// with zone-map statistics, and a storage server whose in-storage
// processor can execute projection, selection, regex matching and
// bounded-state pre-aggregation in a streaming fashion before data ever
// leaves the storage node (Figure 2).
package storage

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/sim"
)

// Segment is one horizontal partition of a table in encoded form. It is
// the unit of storage, pruning and scanning.
type Segment struct {
	ID      int
	Schema  *columnar.Schema
	NumRows int
	Columns []*encoding.EncodedColumn // one per schema field

	block []encoding.EncodedColumn // what Columns point into (openSegment)
}

// BuildSegment encodes a batch into a segment: a view (UnmarshalSegment)
// over the one blob WriteSegment writes, which the segment owns.
func BuildSegment(id int, b *columnar.Batch) *Segment {
	blob, _ := WriteSegment(id, b)
	s, err := UnmarshalSegment(blob)
	if err != nil {
		panic(err) // WriteSegment wrote what UnmarshalSegment reads
	}
	return s
}

// WriteSegment encodes a batch into the blob Marshal writes for its
// segment, writing each byte once: every column is sized first
// (encoding.SizeColumn), then written straight into one buffer of
// exactly the blob's length. It also returns each column's
// encoding.WriteSummary, in schema order.
func WriteSegment(id int, b *columnar.Batch) ([]byte, []encoding.WriteSummary) {
	ws := make([]encoding.ColumnWriter, b.NumCols())
	sums := make([]encoding.WriteSummary, b.NumCols())
	for i := range ws {
		ws[i], sums[i] = encoding.SizeColumn(b.Col(i))
	}
	return writeSegment(id, b.NumRows(), b.Schema().Fields, func(i int) int { return ws[i].Len() },
		func(out []byte, i int) []byte { return ws[i].AppendTo(out) }), sums
}

// EncodedSize is the segment's on-media footprint: what a scan reads and
// what ships when data moves compressed.
func (s *Segment) EncodedSize() sim.Bytes {
	var n int64
	for _, c := range s.Columns {
		n += c.EncodedSize()
	}
	return sim.Bytes(n)
}

// DecodedSize is the in-memory footprint after decoding: what ships when
// data moves uncompressed and what filters must stream through.
func (s *Segment) DecodedSize() sim.Bytes {
	var n int64
	for i, c := range s.Columns {
		n += decodedColSize(s.Schema.Fields[i].Type, c)
	}
	return sim.Bytes(n)
}

// ColumnDecodedSize reports the decoded footprint of a subset of columns,
// which is what projection pushdown saves.
func (s *Segment) ColumnDecodedSize(indices []int) sim.Bytes {
	var n int64
	for _, i := range indices {
		n += decodedColSize(s.Schema.Fields[i].Type, s.Columns[i])
	}
	return sim.Bytes(n)
}

func decodedColSize(t columnar.Type, c *encoding.EncodedColumn) int64 {
	// DecodedSize computes the real decoded footprint — for dictionary
	// columns the sum of referenced entry widths plus headers, not an
	// approximation — so dict-heavy columns meter honestly.
	return c.DecodedSize()
}

// Decode reconstructs the full segment as a batch, verifying checksums.
func (s *Segment) Decode() (*columnar.Batch, error) {
	return s.DecodeColumns(allIndices(len(s.Columns)))
}

// DecodeColumns reconstructs only the requested columns (projection
// applied during decode, which is how columnar scans avoid touching
// pruned columns at all).
func (s *Segment) DecodeColumns(indices []int) (*columnar.Batch, error) {
	return s.decodeColumns(indices, nil, nil)
}

// decodeColumns is DecodeColumns into a batch of the given schema, nil
// for the segment's own projected, leased from p with its value arrays
// (columnar.Pool.Lend); a nil p allocates them.
func (s *Segment) decodeColumns(indices []int, schema *columnar.Schema, p *columnar.Pool) (*columnar.Batch, error) {
	for _, idx := range indices {
		if idx < 0 || idx >= len(s.Columns) {
			return nil, fmt.Errorf("storage: column %d out of range in segment %d", idx, s.ID)
		}
	}
	if schema == nil {
		schema = s.Schema.Project(indices)
	}
	b := p.Lend(schema)
	for i, idx := range indices {
		if _, err := s.Columns[idx].DecodeInto(b.Col(i), p); err != nil {
			b.Release()
			return nil, fmt.Errorf("storage: segment %d column %d: %w", s.ID, idx, err)
		}
	}
	return b, nil
}

// PruneInt reports whether the segment can be skipped for a predicate
// that restricts column col to [lo, hi]: true means the zone map proves
// no row matches.
func (s *Segment) PruneInt(col int, lo, hi int64) bool {
	if col < 0 || col >= len(s.Columns) {
		return false
	}
	return !s.Columns[col].Stats.OverlapsInt(lo, hi)
}

// Marshal serializes the segment into a self-contained blob, written
// once into a buffer presized for all of it.
func (s *Segment) Marshal() []byte {
	return writeSegment(s.ID, s.NumRows, s.Schema.Fields, func(i int) int { return s.Columns[i].MaxMarshalSize() },
		func(out []byte, i int) []byte { return s.Columns[i].AppendMarshal(out) })
}

// writeSegment writes a blob into one buffer of exactly its length: the
// header (ID, row count, column count), then each field's name and type
// followed by its column's block, which write(out, i) appends and is
// size(i) bytes long.
func writeSegment(id, rows int, fields []columnar.Field, size func(i int) int, write func(out []byte, i int) []byte) []byte {
	n := 12
	for i, f := range fields {
		n += 2 + len(f.Name) + 1 + size(i)
	}
	out := binary.LittleEndian.AppendUint32(make([]byte, 0, n), uint32(id))
	out = binary.LittleEndian.AppendUint32(out, uint32(rows))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(fields)))
	for i, f := range fields {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(f.Name)))
		out = append(out, f.Name...)
		out = write(append(out, byte(f.Type)), i)
	}
	return out
}

// minFieldBytes is the least a marshalled field can occupy: name length
// and type byte, then a column header with every varint and section at
// its shortest.
const minFieldBytes = 3 + 31

// UnmarshalSegment opens a blob produced by Marshal as a view: it walks
// the headers (a few microseconds, whatever the blob's size) and every
// column's Data and Nulls alias data instead of copying it. The segment
// is therefore valid only while data is, and data must not change under
// it: blobs out of the ObjectStore qualify for as long as they are
// referenced (the store never writes through a stored slice), a buffer-
// pool page only while it is pinned. The header fields a view trusts —
// each column's type and row count — are checked here.
func UnmarshalSegment(data []byte) (*Segment, error) {
	s := new(Segment)
	if err := openSegment(s, data); err != nil {
		return nil, err
	}
	return s, nil
}

// openSegment is UnmarshalSegment into s, new or opened before: it
// reuses s's slices and column block and keeps the field names and
// zone-map strings s holds where the bytes are the same, so reopening a
// view over a segment like its last allocates nothing. On an error s is
// half open, to be opened again, never read.
func openSegment(s *Segment, data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("%w: segment header truncated", encoding.ErrCorrupt)
	}
	s.ID = int(binary.LittleEndian.Uint32(data))
	s.NumRows = int(binary.LittleEndian.Uint32(data[4:]))
	ncols := int(binary.LittleEndian.Uint32(data[8:]))
	data = data[12:]
	// A corrupt count must fail at the first truncated field below, not
	// allocate: presize by what the remaining bytes could hold. Field i
	// cannot fit unless i < room, so nothing below outgrows it.
	room := min(ncols, len(data)/minFieldBytes)
	if s.Schema == nil {
		s.Schema = new(columnar.Schema)
	}
	s.Schema.Fields = slices.Grow(s.Schema.Fields[:0], room)
	s.Columns, s.block = slices.Grow(s.Columns[:0], room), slices.Grow(s.block[:0], room)
	for i := 0; i < ncols; i++ {
		if i >= room || len(data) < 2 {
			return fmt.Errorf("%w: segment field truncated", encoding.ErrCorrupt)
		}
		nameLen := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		if len(data) < nameLen+1 {
			return fmt.Errorf("%w: segment field name truncated", encoding.ErrCorrupt)
		}
		// The name this view held at i is kept when the bytes are the same.
		f := columnar.Field{Name: s.Schema.Fields[:i+1][i].Name, Type: columnar.Type(data[nameLen])}
		if name := data[:nameLen]; f.Name != string(name) {
			f.Name = string(name)
		}
		data = data[nameLen+1:]
		s.Schema.Fields = append(s.Schema.Fields, f)
		s.block = s.block[:i+1]
		col := &s.block[i]
		used, err := col.Unmarshal(data)
		if err != nil {
			return err
		}
		if col.Type != f.Type || col.Stats.NumValues != s.NumRows {
			return fmt.Errorf("%w: segment %d column %d is %v x %d rows, field says %v x %d",
				encoding.ErrCorrupt, s.ID, i, col.Type, col.Stats.NumValues, f.Type, s.NumRows)
		}
		data = data[used:]
		s.Columns = append(s.Columns, col)
	}
	return nil
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
