package encoding

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/columnar"
)

// This file implements late materialization: after a predicate kernel
// has produced a selection bitmap, only the surviving rows of only the
// projected columns are decoded (gather-decode).
//
// Every kernel below has the loop shape of columnar's selectValues, the
// loop Batch.Filter runs: range over the selection's 64-bit words; a full
// word takes the codec's sequential 64-value decode; any other word gives
// up its set bits lowest first (TrailingZeros64, then w &= w-1); values
// are stored by index into a slice pre-sized from sel.Count(). There is
// no closure per run or row, no append and no index slice, and because
// the full word is the sequential decode there is no density threshold
// and nothing that chooses between "gather" and "decode, then filter".
// Nor is there a second decoder: Decode is these kernels under a
// selection of every row.
//
// Codecs with fixed-width layouts (bit-packing, plain floats and bools,
// dictionary codes) are random access: a clear bit costs nothing, so the
// work is proportional to the rows kept. Stream codecs (RLE, delta, plain
// strings) are walked front to back once, checking the whole stream
// whatever is selected, but write — and for strings allocate — only the
// selected values; GatherBytes charges them honestly at full size.
//
// What every call verifies, whatever the selection: the payload's CRC,
// the value count against the header, the payload length against the
// count, and the null bitmap's length; a dictionary code is range-checked
// on every selected row. All of it surfaces as ErrCorrupt.
//
// NULLs do not enter the value loops. The output's null bits are the
// column's null bits at the selected positions, set by rank a word at a
// time (Bitmap.Select over sel & nulls) — or, when every row is
// selected, the parsed bitmap itself — and Vector.SetNulls gives those
// rows the zero value: the same split Batch.Filter uses.

// DecodeFiltered decodes only the rows whose bit is set in sel, returning
// a dense vector of the column's values at those rows, in row order, NULL
// where the column is. A DICT column comes out dictionary-coded: its
// codes, and the dictionary they index (see columnar.FromCodes).
func (ec *EncodedColumn) DecodeFiltered(sel *columnar.Bitmap) (*columnar.Vector, error) {
	n := ec.Stats.NumValues
	if sel.Len() != n {
		return nil, fmt.Errorf("%w: selection length %d, column has %d rows", ErrCorrupt, sel.Len(), n)
	}
	if err := ec.verify(); err != nil {
		return nil, err
	}
	nulls, err := ec.nullRows()
	if err != nil {
		return nil, err
	}
	words, count := sel.Words(), sel.Count()
	var out *columnar.Vector
	switch ec.Type {
	case columnar.Int64:
		vals := make([]int64, count)
		switch ec.Encoding {
		case BitPacked:
			err = gatherBitPacked(vals, ec.Data, n, words)
		case RLE:
			err = selectRLE(vals, ec.Data, n, words)
		case DeltaVarint:
			err = selectDelta(vals, ec.Data, n, words)
		default:
			err = fmt.Errorf("%w: encoding %v invalid for BIGINT", ErrCorrupt, ec.Encoding)
		}
		out = columnar.FromInt64s(vals)
	case columnar.Float64:
		vals := make([]float64, count)
		err = gatherFloats(vals, ec.Data, n, words)
		out = columnar.FromFloat64s(vals)
	case columnar.String:
		switch ec.Encoding {
		case Dict:
			codes := make([]int32, count)
			var dict []string
			dict, err = gatherDict(codes, ec.Data, n, words)
			out = columnar.FromCodes(codes, dict)
		case Plain:
			vals := make([]string, count)
			err = selectPlainStrings(vals, ec.Data, n, words)
			out = columnar.FromStrings(vals)
		default:
			err = fmt.Errorf("%w: encoding %v invalid for VARCHAR", ErrCorrupt, ec.Encoding)
		}
	case columnar.Bool:
		vals := make([]bool, count)
		err = gatherBools(vals, ec.Data, n, words)
		out = columnar.FromBools(vals)
	default:
		err = fmt.Errorf("%w: unknown column type %d", ErrCorrupt, ec.Type)
	}
	if err != nil {
		return nil, err
	}
	if nulls != nil {
		if count < n {
			nulls = nulls.Select(sel)
		}
		out.SetNulls(nulls)
	}
	return out, nil
}

// Each kernel fills dst, which holds one value per set bit of sel, from
// an n-row payload; sel has one bit per row, none set at or beyond n.

func gatherBitPacked(dst []int64, data []byte, n int, sel []uint64) error {
	r, err := newBitPackedReader(data)
	if err != nil {
		return err
	}
	if r.n != n {
		return fmt.Errorf("%w: value count %d, header says %d", ErrCorrupt, r.n, n)
	}
	k := 0
	for wi, w := range sel {
		k += r.gatherWord(dst[k:], wi<<6, w)
	}
	return nil
}

// gatherDict stores the selected rows' codes in dst and returns the
// dictionary they index: a DICT column decodes to a coded vector, and no
// row becomes a string here.
func gatherDict(dst []int32, data []byte, n int, sel []uint64) ([]string, error) {
	dict, codesData, err := splitDict(data)
	if err != nil {
		return nil, err
	}
	r, err := newBitPackedReader(codesData)
	if err != nil {
		return nil, err
	}
	if r.n != n {
		return nil, fmt.Errorf("%w: code count %d, header says %d", ErrCorrupt, r.n, n)
	}
	return dict, r.gatherCodes(dst, len(dict), sel)
}

// gatherCodes reads the selected rows' codes a word at a time — no
// []int64 of every code — and range-checks each against a dictionary of
// entries entries before storing it.
func (r *bitPackedReader) gatherCodes(dst []int32, entries int, sel []uint64) error {
	var codes [64]int64
	k := 0
	for wi, w := range sel {
		for _, c := range codes[:r.gatherWord(codes[:], wi<<6, w)] {
			if uint64(c) >= uint64(entries) {
				return fmt.Errorf("%w: dict code %d out of range", ErrCorrupt, c)
			}
			dst[k] = int32(c)
			k++
		}
	}
	return nil
}

func gatherFloats(dst []float64, data []byte, n int, sel []uint64) error {
	cnt, sz := binary.Uvarint(data)
	if sz <= 0 || cnt != uint64(n) {
		return fmt.Errorf("%w: bad float count", ErrCorrupt)
	}
	data = data[sz:]
	if uint64(len(data)) < cnt*8 {
		return fmt.Errorf("%w: float data truncated", ErrCorrupt)
	}
	k := 0
	for wi, w := range sel {
		base := wi << 6
		if w == ^uint64(0) {
			// Array pointers: the loop indexes constant-length arrays, with
			// no bounds check per value.
			src, seq := (*[512]byte)(data[base*8:]), (*[64]float64)(dst[k:])
			for j := range seq {
				seq[j] = lefloat(src[j*8:])
			}
			k += 64
			continue
		}
		for ; w != 0; w &= w - 1 {
			dst[k] = lefloat(data[(base+bits.TrailingZeros64(w))*8:])
			k++
		}
	}
	return nil
}

// gatherBools has no full-word case of its own: the 64 packed bits of a
// selection word are one load, and a full word peels all 64 of them.
func gatherBools(dst []bool, data []byte, n int, sel []uint64) error {
	cnt, packed, err := splitBools(data)
	if err != nil {
		return err
	}
	if cnt != uint64(n) {
		return fmt.Errorf("%w: bad bool count", ErrCorrupt)
	}
	k := 0
	for wi, w := range sel {
		vals := load64(packed, wi*8)
		for ; w != 0; w &= w - 1 {
			dst[k] = vals>>uint(bits.TrailingZeros64(w))&1 != 0
			k++
		}
	}
	return nil
}

// selectRLE walks every run, so a truncated or overflowing stream fails
// whatever is selected, and writes a run's value once per selected row
// of the run: up to the rank of the run's end in sel, counted by a cursor
// that passes each selection word once. Runs are short where a column
// has NULLs (every NULL breaks one), so under a full selection — Decode —
// the count is skipped altogether.
func selectRLE(dst []int64, data []byte, n int, sel []uint64) error {
	cnt, sz := binary.Uvarint(data)
	if sz <= 0 || cnt != uint64(n) {
		return fmt.Errorf("%w: bad RLE count", ErrCorrupt)
	}
	data = data[sz:]
	k, wi, before := 0, 0, 0 // rows written; set bits in sel[:wi]
	for pos := 0; pos < n; {
		u, sz := binary.Uvarint(data)
		if sz <= 0 {
			return fmt.Errorf("%w: truncated RLE value", ErrCorrupt)
		}
		data = data[sz:]
		run, sz := binary.Uvarint(data)
		if sz <= 0 || run == 0 {
			return fmt.Errorf("%w: truncated RLE run", ErrCorrupt)
		}
		data = data[sz:]
		if run > uint64(n-pos) {
			return fmt.Errorf("%w: RLE run overflows count", ErrCorrupt)
		}
		pos += int(run)
		upto := pos // with every row selected, a row's rank is its position
		if len(dst) < n {
			for ; wi < pos>>6; wi++ {
				before += bits.OnesCount64(sel[wi])
			}
			upto = before
			if r := uint(pos) & 63; r != 0 {
				upto += bits.OnesCount64(sel[wi] << (64 - r))
			}
		}
		v := unzigzag(u)
		for ; k < upto; k++ {
			dst[k] = v
		}
	}
	return nil
}

// selectDelta decodes every delta — the running sum needs them all — and
// stores the sum at the selected rows.
func selectDelta(dst []int64, data []byte, n int, sel []uint64) error {
	cnt, sz := binary.Uvarint(data)
	if sz <= 0 || cnt != uint64(n) {
		return fmt.Errorf("%w: bad delta-varint count", ErrCorrupt)
	}
	data = data[sz:]
	prev := int64(0)
	k := 0
	for wi, w := range sel {
		for lim := min(64, n-wi<<6); lim > 0; lim-- {
			// The deltas of a column worth delta-coding are one or two bytes
			// long, and which of the two is what a branch cannot predict:
			// unless both bytes carry a continuation bit, the second is
			// masked in or out by the first's.
			var u uint64
			var sz int
			if len(data) >= 2 && data[0]&data[1] < 0x80 {
				b0, b1 := uint64(data[0]), uint64(data[1])
				two := b0 >> 7
				u, sz = b0&0x7f|(b1&-two)<<7, 1+int(two)
			} else if u, sz = binary.Uvarint(data); sz <= 0 {
				return fmt.Errorf("%w: truncated delta-varint stream", ErrCorrupt)
			}
			data = data[sz:]
			prev += unzigzag(u)
			if w&1 != 0 {
				dst[k] = prev
				k++
			}
			w >>= 1
		}
	}
	return nil
}

// selectPlainStrings walks every length prefix and copies out — the
// allocation a string costs — only the selected ones.
func selectPlainStrings(dst []string, data []byte, n int, sel []uint64) error {
	cnt, sz := binary.Uvarint(data)
	if sz <= 0 || cnt != uint64(n) {
		return fmt.Errorf("%w: bad string count", ErrCorrupt)
	}
	data = data[sz:]
	k := 0
	for wi, w := range sel {
		for lim := min(64, n-wi<<6); lim > 0; lim-- {
			l, sz := binary.Uvarint(data)
			if sz <= 0 || uint64(len(data)-sz) < l {
				return fmt.Errorf("%w: truncated string", ErrCorrupt)
			}
			data = data[sz:]
			if w&1 != 0 {
				dst[k] = string(data[:l])
				k++
			}
			data = data[l:]
			w >>= 1
		}
	}
	return nil
}

// GatherBytes reports how many encoded bytes the processor must touch to
// decode k of the column's rows. Random-access codecs pay proportionally
// (plus the dictionary table for DICT); stream codecs pay the full
// payload because they cannot skip. This is what the virtual-time meter
// charges for a gather-decode.
func (ec *EncodedColumn) GatherBytes(k int) int64 {
	if k <= 0 {
		return 0
	}
	n := ec.Stats.NumValues
	if n == 0 {
		return 0
	}
	if k > n {
		k = n
	}
	nullBytes := int64(len(ec.Nulls)) // the null bitmap is always walked
	switch {
	case ec.Type == columnar.Int64 && ec.Encoding == BitPacked,
		ec.Type == columnar.Float64 && ec.Encoding == Plain,
		ec.Type == columnar.Bool && ec.Encoding == Plain:
		return int64(len(ec.Data))*int64(k)/int64(n) + nullBytes
	case ec.Type == columnar.String && ec.Encoding == Dict:
		dictBytes, codeBytes, err := dictSectionSizes(ec.Data)
		if err != nil {
			return int64(len(ec.Data)) + nullBytes
		}
		return dictBytes + codeBytes*int64(k)/int64(n) + nullBytes
	}
	return int64(len(ec.Data)) + nullBytes
}

// dictSectionSizes reports the byte size of the dictionary table and of
// the packed codes block without materializing entries.
func dictSectionSizes(data []byte) (dictBytes, codeBytes int64, err error) {
	orig := len(data)
	nd, sz := binary.Uvarint(data)
	if sz <= 0 {
		return 0, 0, fmt.Errorf("%w: bad dict size", ErrCorrupt)
	}
	data = data[sz:]
	for i := uint64(0); i < nd; i++ {
		l, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < l {
			return 0, 0, fmt.Errorf("%w: truncated dict entry", ErrCorrupt)
		}
		data = data[sz+int(l):]
	}
	dictBytes = int64(orig - len(data))
	pl, sz := binary.Uvarint(data)
	if sz <= 0 || uint64(len(data)-sz) < pl {
		return 0, 0, fmt.Errorf("%w: truncated dict codes", ErrCorrupt)
	}
	return dictBytes, int64(pl), nil
}

// DecodedSize reports the in-memory footprint the column has after a
// full decode, matching Vector.ByteSize on the decoded vector. For
// dictionary columns this is the real expansion — the sum of the
// referenced entry lengths per row plus string headers — not an
// approximation. The result is memoized; corrupt payloads fall back to
// a size-doubling estimate so metering never fails.
func (ec *EncodedColumn) DecodedSize() int64 {
	if ec.hasDecodedSize {
		return ec.decodedSize
	}
	ec.decodedSize = ec.computeDecodedSize()
	ec.hasDecodedSize = true
	return ec.decodedSize
}

func (ec *EncodedColumn) computeDecodedSize() int64 {
	n := int64(ec.Stats.NumValues)
	var size int64
	switch ec.Type {
	case columnar.Int64, columnar.Float64:
		size = n * 8
	case columnar.Bool:
		size = n
	case columnar.String:
		var ok bool
		size, ok = ec.decodedStringSize()
		if !ok {
			return int64(len(ec.Data)+len(ec.Nulls)) * 2
		}
	default:
		return int64(len(ec.Data)+len(ec.Nulls)) * 2
	}
	// A decoded vector's null bitmap covers bits up to the last NULL row.
	if nulls, err := ec.nullRows(); err == nil && nulls != nil {
		size += int64((nulls.LastSet()/64 + 1) * 8)
	}
	return size
}

// decodedStringSize sums the decoded byte footprint of a string column:
// per-row value length plus the 16-byte string header Vector.ByteSize
// charges.
func (ec *EncodedColumn) decodedStringSize() (int64, bool) {
	switch ec.Encoding {
	case Plain:
		data := ec.Data
		cnt, sz := binary.Uvarint(data)
		if sz <= 0 {
			return 0, false
		}
		data = data[sz:]
		var total int64
		for i := uint64(0); i < cnt; i++ {
			l, sz := binary.Uvarint(data)
			if sz <= 0 || uint64(len(data)-sz) < l {
				return 0, false
			}
			data = data[sz+int(l):]
			total += int64(l) + 16
		}
		return total, true
	case Dict:
		dict, codesData, err := splitDict(ec.Data)
		if err != nil {
			return 0, false
		}
		r, err := newBitPackedReader(codesData)
		if err != nil || r.n != ec.Stats.NumValues {
			return 0, false
		}
		var total int64
		for i := 0; i < r.n; i++ {
			c := r.at(i)
			if c < 0 || c >= int64(len(dict)) {
				return 0, false
			}
			total += int64(len(dict[c])) + 16
		}
		return total, true
	}
	return 0, false
}
