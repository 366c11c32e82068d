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
	// Data (the encoded values) and Nulls (appendBools of the null
	// bitmap; empty if no nulls) are read-only. On a column opened by
	// Unmarshal they are capacity-clamped sub-slices of the blob it
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

// WriteSummary is what encoding a column learned of its values beyond
// the column itself, for the planner's statistics: the zone map, and for
// a VARCHAR column the distinct values of its non-NULL rows (dictionary
// entries, built for DICT's candidate whichever codec wins) and Σ len
// over those rows. It is returned beside the column, never kept in it:
// every segment open allocates EncodedColumns, and the read path has no
// use for it.
type WriteSummary struct {
	Stats       Stats
	Distinct    []string
	StringBytes int64
}

// EncodeColumn encodes a vector, picking the smallest applicable
// encoding without writing the others: one pass sizes every candidate
// exactly (see int64Sizes and dictionary), and only the winner is written.
// Ties go to the earlier candidate — RLE, then DELTA, then BITPACK; DICT,
// then PLAIN — each replacing the best so far only when strictly smaller.
// The column is a view (Unmarshal) of the block its ColumnWriter writes:
// one writer per block.
func EncodeColumn(v *columnar.Vector) *EncodedColumn {
	w, _ := SizeColumn(v)
	ec := new(EncodedColumn)
	if _, err := ec.Unmarshal(w.AppendTo(make([]byte, 0, w.Len()))); err != nil {
		panic(err) // the writer wrote what Unmarshal reads
	}
	return ec
}

// ColumnWriter is a column sized but not yet written: its header, the
// winning codec and what sizing learned to write it (the BIGINT frame, or
// the dictionary when DICT wins). It holds the vector it was sized from,
// which must not change before AppendTo.
type ColumnWriter struct {
	v                 *columnar.Vector
	enc               ColumnEncoding
	stats             Stats
	nulls             *columnar.Bitmap // nil when no row is NULL
	ints              int64Sizes
	dict              dictionary
	nullsLen, dataLen int
}

// SizeColumn sizes v's column block without writing it, and returns
// the column's WriteSummary.
func SizeColumn(v *columnar.Vector) (ColumnWriter, WriteSummary) {
	n := v.Len()
	w := ColumnWriter{v: v, stats: Stats{NumValues: n, NullCount: v.NullCount()}}
	var sum WriteSummary
	if w.stats.NullCount > 0 {
		w.nulls, w.nullsLen = v.Nulls(), boolsSize(n)
	}
	s := &w.stats
	switch v.Type() {
	case columnar.Int64:
		w.sizeInt64s()
	case columnar.Float64:
		s.MinF, s.MaxF, s.HasMinMax = minMax(v.Float64s(), w.nulls)
		w.dataLen = float64sSize(n)
	case columnar.String:
		sum.Distinct, sum.StringBytes = w.sizeStrings()
	case columnar.Bool:
		w.dataLen = boolsSize(n)
	}
	sum.Stats = w.stats
	return w, sum
}

// sizeInt64s sizes RLE, DELTA and BITPACK in one pass that also finds
// the zone map (unless NULL rows must be left out of it) and picks the
// smallest.
func (w *ColumnWriter) sizeInt64s() {
	vals, s := w.v.Int64s(), &w.stats
	w.ints = sizeInt64s(vals)
	s.MinI, s.MaxI, s.HasMinMax = w.ints.min, w.ints.max, len(vals) > 0
	if w.nulls != nil {
		s.MinI, s.MaxI, s.HasMinMax = minMax(vals, w.nulls)
	}
	w.enc, w.dataLen = RLE, w.ints.rle
	if w.ints.delta < w.dataLen {
		w.enc, w.dataLen = DeltaVarint, w.ints.delta
	}
	if w.ints.bitPacked < w.dataLen {
		w.enc, w.dataLen = BitPacked, w.ints.bitPacked
	}
}

// sizeStrings builds the dictionary once, sizes DICT and PLAIN from it
// and picks the smaller, keeping the dictionary only when DICT wins. It
// returns the distinct values of the non-NULL rows and Σ len over them
// (dictionary.present); the zone map is taken over those values, since
// a set's bounds do not depend on how often each value occurs.
func (w *ColumnWriter) sizeStrings() ([]string, int64) {
	vals, s := w.v.Strings(), &w.stats
	d := buildDict(vals)
	distinct, bytes := d.present(vals, w.nulls)
	s.MinS, s.MaxS, s.HasMinMax = minMax(distinct, nil)
	w.enc, w.dataLen = Plain, d.plainSize
	if size := d.size(); size < d.plainSize {
		w.enc, w.dataLen, w.dict = Dict, size, d
	}
	return distinct, bytes
}

// Len is the exact length of the block AppendTo appends.
func (w *ColumnWriter) Len() int { return blockLen(&w.stats, w.nullsLen, w.dataLen) }

// AppendTo appends the column's block — what Marshal returns for the
// column EncodeColumn makes of the vector — to out, writing Nulls and
// Data in place and then their checksum into the slot the header left.
func (w *ColumnWriter) AppendTo(out []byte) []byte {
	out = appendHeader(out, w.v.Type(), w.enc, &w.stats, 0)
	sum := len(out) - 4
	out = binary.AppendUvarint(out, uint64(w.nullsLen))
	nulls := len(out)
	if w.nulls != nil {
		out = appendBitmapBools(out, w.nulls, w.stats.NumValues)
	}
	crc := crc32.ChecksumIEEE(out[nulls:])
	out = binary.AppendUvarint(out, uint64(w.dataLen))
	data, v := len(out), w.v
	switch {
	case w.enc == RLE:
		out = appendRLEInt64(out, v.Int64s())
	case w.enc == DeltaVarint:
		out = appendDeltaVarint(out, v.Int64s())
	case w.enc == BitPacked:
		out = appendBitPacked(out, v.Int64s(), w.ints.min, w.ints.max)
	case w.enc == Dict:
		out = w.dict.appendTo(out)
	case v.Type() == columnar.String:
		out = appendPlainStrings(out, v.Strings())
	case v.Type() == columnar.Float64:
		out = appendFloat64s(out, v.Float64s())
	default:
		out = appendBools(out, v.Bools())
	}
	binary.LittleEndian.PutUint32(out[sum:], crc32.Update(crc, crc32.IEEETable, out[data:]))
	return out
}

// ComputeChecksum is the CRC-32 (IEEE) of Nulls‖Data: the value Checksum
// holds for an intact column, so a flipped bit in either the values or
// the null bitmap is caught. The zone map (Stats) is not covered. Without
// NULLs it is the CRC of Data alone, since an empty prefix changes nothing.
func (ec *EncodedColumn) ComputeChecksum() uint32 {
	return crc32.Update(crc32.ChecksumIEEE(ec.Nulls), crc32.IEEETable, ec.Data)
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
func (ec *EncodedColumn) Decode() (*columnar.Vector, error) { return ec.DecodeInto(nil, nil, nil) }

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

// MaxMarshalSize is the length AppendMarshal appends, exactly, for
// presizing dst.
func (ec *EncodedColumn) MaxMarshalSize() int {
	return blockLen(&ec.Stats, len(ec.Nulls), len(ec.Data))
}

// AppendMarshal appends the block Marshal returns to dst, so a segment
// is serialized into one buffer instead of one per column.
func (ec *EncodedColumn) AppendMarshal(out []byte) []byte {
	out = appendHeader(out, ec.Type, ec.Encoding, &ec.Stats, ec.Checksum)
	out = binary.AppendUvarint(out, uint64(len(ec.Nulls)))
	out = append(out, ec.Nulls...)
	out = binary.AppendUvarint(out, uint64(len(ec.Data)))
	return append(out, ec.Data...)
}

// appendHeader writes a column block's header, everything before its
// Nulls section: type, encoding, zone map and checksum. It is the one
// header writer; blockLen is the size function of the block it heads.
func appendHeader(out []byte, t columnar.Type, e ColumnEncoding, s *Stats, checksum uint32) []byte {
	out = append(out, byte(t), byte(e))
	out = binary.AppendUvarint(out, uint64(s.NumValues))
	out = binary.AppendUvarint(out, uint64(s.NullCount))
	if s.HasMinMax {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = binary.AppendUvarint(out, zigzag(s.MinI))
	out = binary.AppendUvarint(out, zigzag(s.MaxI))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.MinF))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.MaxF))
	out = binary.AppendUvarint(out, uint64(len(s.MinS)))
	out = append(out, s.MinS...)
	out = binary.AppendUvarint(out, uint64(len(s.MaxS)))
	out = append(out, s.MaxS...)
	return binary.LittleEndian.AppendUint32(out, checksum)
}

// blockLen is the exact length of a column block: appendHeader's for s,
// then the Nulls and Data sections, each length-prefixed.
func blockLen(s *Stats, nulls, data int) int {
	return 2 + uvarintLen(uint64(s.NumValues)) + uvarintLen(uint64(s.NullCount)) + 1 +
		uvarintLen(zigzag(s.MinI)) + uvarintLen(zigzag(s.MaxI)) + 16 +
		uvarintLen(uint64(len(s.MinS))) + len(s.MinS) + uvarintLen(uint64(len(s.MaxS))) + len(s.MaxS) + 4 +
		uvarintLen(uint64(nulls)) + nulls + uvarintLen(uint64(data)) + data
}

// UnmarshalColumn parses a block produced by Marshal and returns the
// column plus the number of bytes consumed (see Unmarshal).
func UnmarshalColumn(data []byte) (*EncodedColumn, int, error) {
	ec := new(EncodedColumn)
	used, err := ec.Unmarshal(data)
	if err != nil {
		return nil, 0, err
	}
	return ec, used, nil
}

// Unmarshal parses a block produced by Marshal into ec and returns the
// number of bytes consumed. The column is a view: Data and Nulls alias
// data (see EncodedColumn.Data), only the header is parsed and nothing is
// copied but the two zone-map strings, unless ec holds them already.
func (ec *EncodedColumn) Unmarshal(data []byte) (int, error) {
	orig := len(data)
	if len(data) < 2 {
		return 0, fmt.Errorf("%w: column header truncated", ErrCorrupt)
	}
	lastMin, lastMax := ec.Stats.MinS, ec.Stats.MaxS
	*ec = EncodedColumn{Type: columnar.Type(data[0]), Encoding: ColumnEncoding(data[1])}
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
		return 0, err
	}
	if nv > math.MaxUint32 { // a segment's row count is 32 bits; Decode sizes a bitmap by it
		return 0, fmt.Errorf("%w: column row count %d", ErrCorrupt, nv)
	}
	ec.Stats.NumValues = int(nv)
	nc, err := readUvarint()
	if err != nil {
		return 0, err
	}
	ec.Stats.NullCount = int(nc)
	if len(data) < 1 {
		return 0, fmt.Errorf("%w: column header truncated", ErrCorrupt)
	}
	ec.Stats.HasMinMax = data[0] == 1
	data = data[1:]
	mi, err := readUvarint()
	if err != nil {
		return 0, err
	}
	ec.Stats.MinI = unzigzag(mi)
	ma, err := readUvarint()
	if err != nil {
		return 0, err
	}
	ec.Stats.MaxI = unzigzag(ma)
	if len(data) < 16 {
		return 0, fmt.Errorf("%w: column float stats truncated", ErrCorrupt)
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
		return 0, err
	}
	ec.Stats.MinS = keep(lastMin, minS)
	maxS, err := readBytes()
	if err != nil {
		return 0, err
	}
	ec.Stats.MaxS = keep(lastMax, maxS)
	if len(data) < 4 {
		return 0, fmt.Errorf("%w: column checksum truncated", ErrCorrupt)
	}
	ec.Checksum = binary.LittleEndian.Uint32(data)
	data = data[4:]
	nulls, err := readBytes()
	if err != nil {
		return 0, err
	}
	if len(nulls) > 0 {
		ec.Nulls = nulls
	}
	if ec.Data, err = readBytes(); err != nil {
		return 0, err
	}
	return orig - len(data), nil
}

// keep is b as a string: s when it holds the same bytes, a copy otherwise.
func keep(s string, b []byte) string {
	if s == string(b) {
		return s
	}
	return string(b)
}
