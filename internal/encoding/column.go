package encoding

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/columnar"
)

// ColumnEncoding identifies the lightweight encoding applied to one
// column's values.
type ColumnEncoding uint8

// Available column encodings.
const (
	Plain ColumnEncoding = iota
	RLE
	DeltaVarint
	BitPacked
	Dict
)

// String names the encoding.
func (e ColumnEncoding) String() string {
	switch e {
	case Plain:
		return "PLAIN"
	case RLE:
		return "RLE"
	case DeltaVarint:
		return "DELTA"
	case BitPacked:
		return "BITPACK"
	case Dict:
		return "DICT"
	}
	return fmt.Sprintf("ColumnEncoding(%d)", uint8(e))
}

// Stats are per-column min/max statistics, the zone-map substrate
// (paper Section 2.2: cloud-native engines use zone maps instead of
// indexes to fetch as little data as possible).
type Stats struct {
	NumValues int
	NullCount int
	HasMinMax bool
	MinI      int64
	MaxI      int64
	MinF      float64
	MaxF      float64
	MinS      string
	MaxS      string
}

// OverlapsInt reports whether [lo, hi] intersects the column's int range.
// Columns without min/max conservatively overlap everything.
func (s Stats) OverlapsInt(lo, hi int64) bool {
	if !s.HasMinMax {
		return true
	}
	return hi >= s.MinI && lo <= s.MaxI
}

// EncodedColumn is one column of one segment in its encoded form,
// self-describing and checksummed.
type EncodedColumn struct {
	Type     columnar.Type
	Encoding ColumnEncoding
	Stats    Stats
	// Data (the encoded values) and Nulls (EncodeBools of the null
	// bitmap; empty if no nulls) are read-only. On a column opened by
	// UnmarshalColumn they are capacity-clamped sub-slices of the blob it
	// was given, so the blob's owner decides how long the column may
	// live, nobody may write through them, and every decoder copies
	// values out (no unsafe string views) so decoded vectors outlive it.
	Data     []byte
	Nulls    []byte
	Checksum uint32 // CRC-32 of Nulls‖Data; see ComputeChecksum

	// decodedSize memoizes DecodedSize; not part of the wire format.
	decodedSize    int64
	hasDecodedSize bool
}

// EncodeColumn encodes a vector, picking the smallest applicable
// encoding without writing the others: one pass sizes every candidate
// exactly (see int64Sizes and dictionary), and only the winner is written,
// into a buffer of exactly its length. Ties go to the earlier candidate —
// RLE, then DELTA, then BITPACK; DICT, then PLAIN — each replacing the
// best so far only when strictly smaller.
func EncodeColumn(v *columnar.Vector) *EncodedColumn {
	n := v.Len()
	ec := &EncodedColumn{Type: v.Type(), Stats: Stats{NumValues: n, NullCount: v.NullCount()}}
	var nulls *columnar.Bitmap // nil when no row is NULL
	if ec.Stats.NullCount > 0 {
		nulls = v.Nulls()
		ec.Nulls = appendBitmapBools(make([]byte, 0, boolsSize(n)), nulls, n)
	}
	s := &ec.Stats
	switch v.Type() {
	case columnar.Int64:
		ec.Encoding, ec.Data = encodeInt64s(s, v.Int64s(), nulls)
	case columnar.Float64:
		s.MinF, s.MaxF, s.HasMinMax = minMax(v.Float64s(), nulls)
		ec.Encoding, ec.Data = Plain, EncodeFloat64s(v.Float64s())
	case columnar.String:
		ec.Encoding, ec.Data = encodeStrings(s, v.Strings(), nulls)
	case columnar.Bool:
		ec.Encoding, ec.Data = Plain, EncodeBools(v.Bools())
	}
	ec.Checksum = ec.ComputeChecksum()
	return ec
}

// ComputeChecksum is the CRC-32 (IEEE) of Nulls‖Data: the value Checksum
// holds for an intact column, so a flipped bit in either the values or
// the null bitmap is caught. The zone map (Stats) is not covered. Without
// NULLs it is the CRC of Data alone, since an empty prefix changes nothing.
func (ec *EncodedColumn) ComputeChecksum() uint32 {
	return crc32.Update(crc32.ChecksumIEEE(ec.Nulls), crc32.IEEETable, ec.Data)
}

// encodeInt64s sizes RLE, DELTA and BITPACK in one pass that also finds
// the zone map (unless NULL rows must be left out of it) and writes the
// smallest.
func encodeInt64s(s *Stats, vals []int64, nulls *columnar.Bitmap) (ColumnEncoding, []byte) {
	sz := sizeInt64s(vals)
	s.MinI, s.MaxI, s.HasMinMax = sz.min, sz.max, len(vals) > 0
	if nulls != nil {
		s.MinI, s.MaxI, s.HasMinMax = minMax(vals, nulls)
	}
	enc, size := RLE, sz.rle
	if sz.delta < size {
		enc, size = DeltaVarint, sz.delta
	}
	if sz.bitPacked < size {
		enc, size = BitPacked, sz.bitPacked
	}
	out := make([]byte, 0, size)
	switch enc {
	case RLE:
		out = appendRLEInt64(out, vals)
	case DeltaVarint:
		out = appendDeltaVarint(out, vals)
	default:
		out = appendBitPacked(out, vals, sz.min, sz.max)
	}
	return enc, out
}

// encodeStrings builds the dictionary once, sizes DICT and PLAIN from it
// and writes the smaller. Without NULLs the zone map is taken over the
// dictionary's entries instead of every row.
func encodeStrings(s *Stats, vals []string, nulls *columnar.Bitmap) (ColumnEncoding, []byte) {
	d := buildDict(vals)
	if nulls == nil {
		s.MinS, s.MaxS, s.HasMinMax = minMax(d.entries, nil)
	} else {
		s.MinS, s.MaxS, s.HasMinMax = minMax(vals, nulls)
	}
	if size := d.size(); size < d.plainSize {
		return Dict, d.appendTo(make([]byte, 0, size))
	}
	return Plain, appendPlainStrings(make([]byte, 0, d.plainSize), vals)
}

// minMax is the zone map: the smallest and largest of vals over the rows
// not set in nulls (nil: every row), and false when there is no such
// row. Like every comparison on the data path it uses < and >, so a NaN
// never displaces a bound it follows.
func minMax[T int64 | float64 | string](vals []T, nulls *columnar.Bitmap) (lo, hi T, ok bool) {
	for i, x := range vals {
		if nulls != nil && i < nulls.Len() && nulls.Get(i) {
			continue
		}
		if !ok {
			lo, hi, ok = x, x, true
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, ok
}

// Decode verifies the checksum and reconstructs the vector, including its
// null bitmap. This is the "decode (for error checking), perhaps
// decompress" step the paper describes storage servers performing. It is
// DecodeFiltered under a selection of every row: each codec has one
// reader, and its checks are made in one place. The selection of a column
// of up to 65,536 rows (a segment's) is held on the stack, so a full
// decode allocates what its vector holds and nothing else.
func (ec *EncodedColumn) Decode() (*columnar.Vector, error) {
	var buf [1024]uint64
	all := columnar.FullBitmap(ec.Stats.NumValues, buf[:])
	return ec.DecodeFiltered(&all)
}

// EncodedSize reports the byte size of the encoded representation,
// i.e. what moving this column over a link costs.
func (ec *EncodedColumn) EncodedSize() int64 {
	return int64(len(ec.Data) + len(ec.Nulls))
}

// Marshal serializes the encoded column with its header into a
// self-contained byte block.
func (ec *EncodedColumn) Marshal() []byte {
	return ec.AppendMarshal(make([]byte, 0, ec.MaxMarshalSize()))
}

// MaxMarshalSize bounds the bytes AppendMarshal appends from above
// (every varint counted at its maximum width), for presizing dst.
func (ec *EncodedColumn) MaxMarshalSize() int {
	const fixed = 2 + 1 + 16 + 4 // type+encoding, HasMinMax, float stats, checksum
	return fixed + 8*binary.MaxVarintLen64 + len(ec.Stats.MinS) + len(ec.Stats.MaxS) + len(ec.Nulls) + len(ec.Data)
}

// AppendMarshal appends the block Marshal returns to dst, so a segment
// is serialized into one buffer instead of one per column.
func (ec *EncodedColumn) AppendMarshal(out []byte) []byte {
	out = append(out, byte(ec.Type), byte(ec.Encoding))
	out = binary.AppendUvarint(out, uint64(ec.Stats.NumValues))
	out = binary.AppendUvarint(out, uint64(ec.Stats.NullCount))
	if ec.Stats.HasMinMax {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = binary.AppendUvarint(out, zigzag(ec.Stats.MinI))
	out = binary.AppendUvarint(out, zigzag(ec.Stats.MaxI))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(ec.Stats.MinF))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(ec.Stats.MaxF))
	out = binary.AppendUvarint(out, uint64(len(ec.Stats.MinS)))
	out = append(out, ec.Stats.MinS...)
	out = binary.AppendUvarint(out, uint64(len(ec.Stats.MaxS)))
	out = append(out, ec.Stats.MaxS...)
	out = binary.LittleEndian.AppendUint32(out, ec.Checksum)
	out = binary.AppendUvarint(out, uint64(len(ec.Nulls)))
	out = append(out, ec.Nulls...)
	out = binary.AppendUvarint(out, uint64(len(ec.Data)))
	out = append(out, ec.Data...)
	return out
}

// UnmarshalColumn parses a block produced by Marshal and returns the
// column plus the number of bytes consumed. The column is a view: Data
// and Nulls alias data (see EncodedColumn.Data), only the header is
// parsed and nothing is copied but the two zone-map strings.
func UnmarshalColumn(data []byte) (*EncodedColumn, int, error) {
	orig := len(data)
	if len(data) < 2 {
		return nil, 0, fmt.Errorf("%w: column header truncated", ErrCorrupt)
	}
	ec := &EncodedColumn{Type: columnar.Type(data[0]), Encoding: ColumnEncoding(data[1])}
	data = data[2:]
	readUvarint := func() (uint64, error) {
		v, sz := binary.Uvarint(data)
		if sz <= 0 {
			return 0, fmt.Errorf("%w: column header varint truncated", ErrCorrupt)
		}
		data = data[sz:]
		return v, nil
	}
	nv, err := readUvarint()
	if err != nil {
		return nil, 0, err
	}
	if nv > math.MaxUint32 { // a segment's row count is 32 bits; Decode sizes a bitmap by it
		return nil, 0, fmt.Errorf("%w: column row count %d", ErrCorrupt, nv)
	}
	ec.Stats.NumValues = int(nv)
	nc, err := readUvarint()
	if err != nil {
		return nil, 0, err
	}
	ec.Stats.NullCount = int(nc)
	if len(data) < 1 {
		return nil, 0, fmt.Errorf("%w: column header truncated", ErrCorrupt)
	}
	ec.Stats.HasMinMax = data[0] == 1
	data = data[1:]
	mi, err := readUvarint()
	if err != nil {
		return nil, 0, err
	}
	ec.Stats.MinI = unzigzag(mi)
	ma, err := readUvarint()
	if err != nil {
		return nil, 0, err
	}
	ec.Stats.MaxI = unzigzag(ma)
	if len(data) < 16 {
		return nil, 0, fmt.Errorf("%w: column float stats truncated", ErrCorrupt)
	}
	ec.Stats.MinF = math.Float64frombits(binary.LittleEndian.Uint64(data))
	ec.Stats.MaxF = math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
	data = data[16:]
	readBytes := func() ([]byte, error) {
		l, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < l {
			return nil, fmt.Errorf("%w: column section truncated", ErrCorrupt)
		}
		data = data[sz:]
		b := data[:l:l] // capacity-clamped: an append can never reach the next section
		data = data[l:]
		return b, nil
	}
	minS, err := readBytes()
	if err != nil {
		return nil, 0, err
	}
	ec.Stats.MinS = string(minS)
	maxS, err := readBytes()
	if err != nil {
		return nil, 0, err
	}
	ec.Stats.MaxS = string(maxS)
	if len(data) < 4 {
		return nil, 0, fmt.Errorf("%w: column checksum truncated", ErrCorrupt)
	}
	ec.Checksum = binary.LittleEndian.Uint32(data)
	data = data[4:]
	nulls, err := readBytes()
	if err != nil {
		return nil, 0, err
	}
	if len(nulls) > 0 {
		ec.Nulls = nulls
	}
	if ec.Data, err = readBytes(); err != nil {
		return nil, 0, err
	}
	return ec, orig - len(data), nil
}
