package encoding

import (
	"encoding/binary"
	"fmt"

	"repro/internal/columnar"
)

// This file implements late materialization: after a predicate kernel
// has produced a selection bitmap, only the surviving rows of only the
// projected columns are decoded (gather-decode). Codecs with
// fixed-width layouts (bit-packing, plain floats, dictionary codes)
// support true random access, so the decode cost is proportional to the
// rows kept; stream codecs (RLE, delta, plain strings) must be walked
// front to back, and GatherBytes charges them honestly at full size.

// DecodeFiltered decodes only the rows whose bit is set in sel,
// returning a dense vector bit-identical to Decode() followed by a
// Gather of the selected indices.
func (ec *EncodedColumn) DecodeFiltered(sel *columnar.Bitmap) (*columnar.Vector, error) {
	if sel.Len() != ec.Stats.NumValues {
		return nil, fmt.Errorf("%w: selection length %d, column has %d rows", ErrCorrupt, sel.Len(), ec.Stats.NumValues)
	}
	if err := ec.verify(); err != nil {
		return nil, err
	}
	nulls, err := ec.nullRows()
	if err != nil {
		return nil, err
	}
	isNull := func(i int) bool { return nulls != nil && nulls.Get(i) }
	out := columnar.NewVector(ec.Type, sel.Count())

	switch {
	case ec.Type == columnar.Int64 && ec.Encoding == BitPacked:
		r, err := newBitPackedReader(ec.Data)
		if err != nil {
			return nil, err
		}
		if r.n != ec.Stats.NumValues {
			return nil, fmt.Errorf("%w: value count mismatch", ErrCorrupt)
		}
		sel.Runs(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if isNull(i) {
					out.AppendNull()
				} else {
					out.AppendInt64(r.at(i))
				}
			}
		})
		return out, nil

	case ec.Type == columnar.Float64 && ec.Encoding == Plain:
		data := ec.Data
		cnt, sz := binary.Uvarint(data)
		if sz <= 0 || int(cnt) != ec.Stats.NumValues {
			return nil, fmt.Errorf("%w: bad float count", ErrCorrupt)
		}
		data = data[sz:]
		if uint64(len(data)) < cnt*8 {
			return nil, fmt.Errorf("%w: float data truncated", ErrCorrupt)
		}
		sel.Runs(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if isNull(i) {
					out.AppendNull()
				} else {
					out.AppendFloat64(lefloat(data[i*8:]))
				}
			}
		})
		return out, nil

	case ec.Type == columnar.String && ec.Encoding == Dict:
		dict, codesData, err := splitDict(ec.Data)
		if err != nil {
			return nil, err
		}
		r, err := newBitPackedReader(codesData)
		if err != nil {
			return nil, err
		}
		if r.n != ec.Stats.NumValues {
			return nil, fmt.Errorf("%w: code count mismatch", ErrCorrupt)
		}
		var badCode error
		sel.Runs(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if isNull(i) {
					out.AppendNull()
					continue
				}
				c := r.at(i)
				if c < 0 || c >= int64(len(dict)) {
					badCode = fmt.Errorf("%w: dict code %d out of range", ErrCorrupt, c)
					return
				}
				out.AppendString(dict[c])
			}
		})
		if badCode != nil {
			return nil, badCode
		}
		return out, nil

	case ec.Type == columnar.Bool && ec.Encoding == Plain:
		data := ec.Data
		cnt, sz := binary.Uvarint(data)
		if sz <= 0 || int(cnt) != ec.Stats.NumValues {
			return nil, fmt.Errorf("%w: bad bool count", ErrCorrupt)
		}
		data = data[sz:]
		if uint64(len(data)) < (cnt+7)/8 {
			return nil, fmt.Errorf("%w: bool data truncated", ErrCorrupt)
		}
		sel.Runs(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if isNull(i) {
					out.AppendNull()
				} else {
					out.AppendBool(data[i>>3]&(1<<(uint(i)&7)) != 0)
				}
			}
		})
		return out, nil
	}

	// Stream codecs: decode fully, then gather. The caller's GatherBytes
	// charge already accounts for the sequential walk.
	full, err := ec.Decode()
	if err != nil {
		return nil, err
	}
	return full.Gather(sel.Indices(nil)), nil
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
	if len(ec.Nulls) > 0 {
		if nulls, err := DecodeBools(ec.Nulls); err == nil {
			last := -1
			for i, isNull := range nulls {
				if isNull {
					last = i
				}
			}
			if last >= 0 {
				size += int64((last/64 + 1) * 8)
			}
		}
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
