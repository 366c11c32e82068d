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
	Checksum uint32 // CRC-32 (IEEE) of Data

	// decodedSize memoizes DecodedSize; not part of the wire format.
	decodedSize    int64
	hasDecodedSize bool
}

// EncodeColumn encodes a vector, picking the cheapest encoding by actually
// trying the applicable candidates and keeping the smallest output.
func EncodeColumn(v *columnar.Vector) *EncodedColumn {
	ec := &EncodedColumn{Type: v.Type()}
	ec.Stats.NumValues = v.Len()
	ec.Stats.NullCount = v.NullCount()
	if v.HasNulls() {
		nulls := make([]bool, v.Len())
		for i := range nulls {
			nulls[i] = v.IsNull(i)
		}
		ec.Nulls = EncodeBools(nulls)
	}
	switch v.Type() {
	case columnar.Int64:
		vals := v.Int64s()
		computeIntStats(&ec.Stats, v)
		candidates := []struct {
			enc  ColumnEncoding
			data []byte
		}{
			{RLE, EncodeRLEInt64(vals)},
			{DeltaVarint, EncodeDeltaVarint(vals)},
			{BitPacked, EncodeBitPacked(vals)},
		}
		best := candidates[0]
		for _, c := range candidates[1:] {
			if len(c.data) < len(best.data) {
				best = c
			}
		}
		ec.Encoding, ec.Data = best.enc, best.data
	case columnar.Float64:
		computeFloatStats(&ec.Stats, v)
		ec.Encoding, ec.Data = Plain, EncodeFloat64s(v.Float64s())
	case columnar.String:
		computeStringStats(&ec.Stats, v)
		dict := EncodeDict(v.Strings())
		plain := EncodePlainStrings(v.Strings())
		if len(dict) < len(plain) {
			ec.Encoding, ec.Data = Dict, dict
		} else {
			ec.Encoding, ec.Data = Plain, plain
		}
	case columnar.Bool:
		ec.Encoding, ec.Data = Plain, EncodeBools(v.Bools())
	}
	ec.Checksum = crc32.ChecksumIEEE(ec.Data)
	return ec
}

func computeIntStats(s *Stats, v *columnar.Vector) {
	first := true
	for i, x := range v.Int64s() {
		if v.IsNull(i) {
			continue
		}
		if first {
			s.MinI, s.MaxI = x, x
			first = false
			continue
		}
		if x < s.MinI {
			s.MinI = x
		}
		if x > s.MaxI {
			s.MaxI = x
		}
	}
	s.HasMinMax = !first
}

func computeFloatStats(s *Stats, v *columnar.Vector) {
	first := true
	for i, x := range v.Float64s() {
		if v.IsNull(i) {
			continue
		}
		if first {
			s.MinF, s.MaxF = x, x
			first = false
			continue
		}
		if x < s.MinF {
			s.MinF = x
		}
		if x > s.MaxF {
			s.MaxF = x
		}
	}
	s.HasMinMax = !first
}

func computeStringStats(s *Stats, v *columnar.Vector) {
	first := true
	for i, x := range v.Strings() {
		if v.IsNull(i) {
			continue
		}
		if first {
			s.MinS, s.MaxS = x, x
			first = false
			continue
		}
		if x < s.MinS {
			s.MinS = x
		}
		if x > s.MaxS {
			s.MaxS = x
		}
	}
	s.HasMinMax = !first
}

// Decode verifies the checksum and reconstructs the vector, including its
// null bitmap. This is the "decode (for error checking), perhaps
// decompress" step the paper describes storage servers performing.
func (ec *EncodedColumn) Decode() (*columnar.Vector, error) {
	if crc32.ChecksumIEEE(ec.Data) != ec.Checksum {
		return nil, fmt.Errorf("%w: column checksum mismatch", ErrCorrupt)
	}
	var v *columnar.Vector
	switch ec.Type {
	case columnar.Int64:
		var vals []int64
		var err error
		switch ec.Encoding {
		case RLE:
			vals, err = DecodeRLEInt64(ec.Data)
		case DeltaVarint:
			vals, err = DecodeDeltaVarint(ec.Data)
		case BitPacked:
			vals, err = DecodeBitPacked(ec.Data)
		default:
			return nil, fmt.Errorf("%w: encoding %v invalid for BIGINT", ErrCorrupt, ec.Encoding)
		}
		if err != nil {
			return nil, err
		}
		v = columnar.FromInt64s(vals)
	case columnar.Float64:
		vals, err := DecodeFloat64s(ec.Data)
		if err != nil {
			return nil, err
		}
		v = columnar.FromFloat64s(vals)
	case columnar.String:
		var vals []string
		var err error
		switch ec.Encoding {
		case Dict:
			vals, err = DecodeDict(ec.Data)
		case Plain:
			vals, err = DecodePlainStrings(ec.Data)
		default:
			return nil, fmt.Errorf("%w: encoding %v invalid for VARCHAR", ErrCorrupt, ec.Encoding)
		}
		if err != nil {
			return nil, err
		}
		v = columnar.FromStrings(vals)
	case columnar.Bool:
		vals, err := DecodeBools(ec.Data)
		if err != nil {
			return nil, err
		}
		v = columnar.FromBools(vals)
	default:
		return nil, fmt.Errorf("%w: unknown column type %d", ErrCorrupt, ec.Type)
	}
	if v.Len() != ec.Stats.NumValues {
		return nil, fmt.Errorf("%w: decoded %d values, header says %d", ErrCorrupt, v.Len(), ec.Stats.NumValues)
	}
	// The null bitmap is attached as parsed, a word at a time; nothing is
	// re-appended value by value.
	nulls, err := ec.nullRows()
	if err != nil {
		return nil, err
	}
	if nulls != nil {
		v.SetNulls(nulls)
	}
	return v, nil
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
	out = putUvarint(out, uint64(ec.Stats.NumValues))
	out = putUvarint(out, uint64(ec.Stats.NullCount))
	if ec.Stats.HasMinMax {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = putUvarint(out, zigzag(ec.Stats.MinI))
	out = putUvarint(out, zigzag(ec.Stats.MaxI))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(ec.Stats.MinF))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(ec.Stats.MaxF))
	out = putUvarint(out, uint64(len(ec.Stats.MinS)))
	out = append(out, ec.Stats.MinS...)
	out = putUvarint(out, uint64(len(ec.Stats.MaxS)))
	out = append(out, ec.Stats.MaxS...)
	out = binary.LittleEndian.AppendUint32(out, ec.Checksum)
	out = putUvarint(out, uint64(len(ec.Nulls)))
	out = append(out, ec.Nulls...)
	out = putUvarint(out, uint64(len(ec.Data)))
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
