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
}

// BuildSegment encodes a batch into a segment.
func BuildSegment(id int, b *columnar.Batch) *Segment {
	s, _ := BuildSegmentSummary(id, b)
	return s
}

// BuildSegmentSummary is BuildSegment that also returns each column's
// encoding.WriteSummary, in schema order.
func BuildSegmentSummary(id int, b *columnar.Batch) (*Segment, []encoding.WriteSummary) {
	s := &Segment{ID: id, Schema: b.Schema(), NumRows: b.NumRows()}
	s.Columns = make([]*encoding.EncodedColumn, b.NumCols())
	sums := make([]encoding.WriteSummary, b.NumCols())
	for i := 0; i < b.NumCols(); i++ {
		s.Columns[i], sums[i] = encoding.EncodeColumnSummary(b.Col(i))
	}
	return s, sums
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
// for the segment's own projected, with value arrays taken from p,
// leasing the batch to it (columnar.Pool); a nil p allocates them.
func (s *Segment) decodeColumns(indices []int, schema *columnar.Schema, p *columnar.Pool) (*columnar.Batch, error) {
	vecs := make([]*columnar.Vector, len(indices))
	for i, idx := range indices {
		if idx < 0 || idx >= len(s.Columns) {
			return nil, fmt.Errorf("storage: column %d out of range in segment %d", idx, s.ID)
		}
		v, err := s.Columns[idx].DecodePooled(p)
		if err != nil {
			return nil, fmt.Errorf("storage: segment %d column %d: %w", s.ID, idx, err)
		}
		vecs[i] = v
	}
	if schema == nil {
		schema = s.Schema.Project(indices)
	}
	return p.Lease(columnar.BatchOf(schema, vecs...)), nil
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
	size := 12
	for i, f := range s.Schema.Fields {
		size += 2 + len(f.Name) + 1 + s.Columns[i].MaxMarshalSize()
	}
	out := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(s.ID))
	out = binary.LittleEndian.AppendUint32(out, uint32(s.NumRows))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Columns)))
	for i, f := range s.Schema.Fields {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(f.Name)))
		out = append(out, f.Name...)
		out = append(out, byte(f.Type))
		out = s.Columns[i].AppendMarshal(out)
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
	if len(data) < 12 {
		return nil, fmt.Errorf("%w: segment header truncated", encoding.ErrCorrupt)
	}
	s := &Segment{
		ID:      int(binary.LittleEndian.Uint32(data)),
		NumRows: int(binary.LittleEndian.Uint32(data[4:])),
	}
	ncols := int(binary.LittleEndian.Uint32(data[8:]))
	data = data[12:]
	// A corrupt count must fail at the first truncated field below, not
	// allocate: presize by what the remaining bytes could hold.
	room := min(ncols, len(data)/minFieldBytes)
	s.Schema = &columnar.Schema{Fields: make([]columnar.Field, 0, room)}
	s.Columns = make([]*encoding.EncodedColumn, 0, room)
	block := make([]encoding.EncodedColumn, 0, room) // the columns, one allocation
	for i := 0; i < ncols; i++ {
		if len(data) < 2 {
			return nil, fmt.Errorf("%w: segment field truncated", encoding.ErrCorrupt)
		}
		nameLen := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		if len(data) < nameLen+1 {
			return nil, fmt.Errorf("%w: segment field name truncated", encoding.ErrCorrupt)
		}
		name := string(data[:nameLen])
		typ := columnar.Type(data[nameLen])
		data = data[nameLen+1:]
		s.Schema.Fields = append(s.Schema.Fields, columnar.Field{Name: name, Type: typ})
		block = append(block, encoding.EncodedColumn{})
		col := &block[len(block)-1]
		used, err := col.Unmarshal(data)
		if err != nil {
			return nil, err
		}
		if col.Type != typ || col.Stats.NumValues != s.NumRows {
			return nil, fmt.Errorf("%w: segment %d column %d is %v x %d rows, field says %v x %d",
				encoding.ErrCorrupt, s.ID, i, col.Type, col.Stats.NumValues, typ, s.NumRows)
		}
		data = data[used:]
		s.Columns = append(s.Columns, col)
	}
	return s, nil
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
