package encoding

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/columnar"
)

// This file implements predicate kernels that evaluate comparisons
// directly on encoded column data, producing a selection bitmap without
// materializing values. The paper's in-storage processors are wimpy,
// streaming cores (Sections 3 and 7.2); every byte they decode only to
// discard is busy time stolen from pushdown. The kernels follow a fixed
// discipline:
//
//  1. Zone-map short circuit: if the predicate range cannot overlap the
//     column's min/max, or provably covers it, answer from Stats alone
//     without reading Data (no checksum, no decode).
//  2. Checksum verification, exactly as the eager decode path does, so
//     corrupt segments surface as ErrCorrupt through either path.
//  3. A streaming walk of the encoded form (per-run for RLE, per-delta
//     for DELTA, bit-stream for BITPACK, per-code for DICT).
//  4. NULL rows are cleared from the result: a comparison with NULL is
//     false, matching the decoded evaluation.
//
// Every kernel returns ok=false when the type/encoding pair is
// unsupported; callers fall back to decode-then-eval.

// nullRows parses the column's null bitmap into a columnar.Bitmap of n
// bits, or nil when the column has no nulls. EncodeBools packs LSB
// first, which is the Bitmap's own word layout, so the packed bytes are
// stored a word at a time.
func (ec *EncodedColumn) nullRows() (*columnar.Bitmap, error) {
	if len(ec.Nulls) == 0 {
		return nil, nil
	}
	cnt, packed, err := splitBools(ec.Nulls)
	if err != nil {
		return nil, err
	}
	if cnt != uint64(ec.Stats.NumValues) {
		return nil, fmt.Errorf("%w: null bitmap length mismatch", ErrCorrupt)
	}
	bm := columnar.NewBitmap(ec.Stats.NumValues)
	for wi := 0; wi<<6 < bm.Len(); wi++ {
		bm.SetWord(wi, load64(packed, wi*8))
	}
	return bm, nil
}

// NullBitmap returns a bitmap of the column's NULL rows, or nil when
// the column has none.
func (ec *EncodedColumn) NullBitmap() (*columnar.Bitmap, error) { return ec.nullRows() }

// clearNulls removes NULL rows from a selection bitmap.
func (ec *EncodedColumn) clearNulls(bm *columnar.Bitmap) error {
	nulls, err := ec.nullRows()
	if err != nil {
		return err
	}
	if nulls != nil {
		bm.AndNot(nulls)
	}
	return nil
}

// verify checks the column's checksum (null bitmap and values), the one
// check every decode and kernel makes before reading either.
func (ec *EncodedColumn) verify() error {
	if ec.ComputeChecksum() != ec.Checksum {
		return fmt.Errorf("%w: column checksum mismatch", ErrCorrupt)
	}
	return nil
}

// allTrueMinusNulls fills the bitmap and clears NULL rows — the
// zone-map "provably all match" answer.
func (ec *EncodedColumn) allTrueMinusNulls(bm *columnar.Bitmap) (*columnar.Bitmap, bool, error) {
	bm.Fill(0, bm.Len())
	if err := ec.clearNulls(bm); err != nil {
		return nil, false, err
	}
	return bm, true, nil
}

// EvalIntRange evaluates lo <= v <= hi over an encoded Int64 column and
// returns the selection bitmap. ok=false means the type/encoding pair is
// not supported and the caller must fall back to decode-then-eval. A
// non-nil error means the column is corrupt.
func (ec *EncodedColumn) EvalIntRange(lo, hi int64) (*columnar.Bitmap, bool, error) {
	if ec.Type != columnar.Int64 {
		return nil, false, nil
	}
	n := ec.Stats.NumValues
	bm := columnar.NewBitmap(n)
	if lo > hi || ec.Stats.NullCount == n {
		return bm, true, nil
	}
	if ec.Stats.HasMinMax {
		if hi < ec.Stats.MinI || lo > ec.Stats.MaxI {
			return bm, true, nil // no overlap: all false, Data untouched
		}
		if lo <= ec.Stats.MinI && hi >= ec.Stats.MaxI {
			return ec.allTrueMinusNulls(bm) // full cover: all true, Data untouched
		}
	}
	if err := ec.evalInts(intSet{lo: uint64(lo), span: uint64(hi) - uint64(lo)}, bm); err != nil {
		return nil, false, err
	}
	if err := ec.clearNulls(bm); err != nil {
		return nil, false, err
	}
	return bm, true, nil
}

// EvalIntIn evaluates v IN (vals...) over an encoded Int64 column.
func (ec *EncodedColumn) EvalIntIn(vals []int64) (*columnar.Bitmap, bool, error) {
	if ec.Type != columnar.Int64 {
		return nil, false, nil
	}
	n := ec.Stats.NumValues
	bm := columnar.NewBitmap(n)
	if len(vals) == 0 || ec.Stats.NullCount == n {
		return bm, true, nil
	}
	// Constants outside the zone map cannot match; the rest are tested
	// inside their own [least, greatest] span first, then by membership.
	member := make(map[int64]struct{}, len(vals))
	least, greatest := int64(math.MaxInt64), int64(math.MinInt64)
	for _, v := range vals {
		if !ec.Stats.HasMinMax || (v >= ec.Stats.MinI && v <= ec.Stats.MaxI) {
			member[v] = struct{}{}
			least, greatest = min(least, v), max(greatest, v)
		}
	}
	if len(member) == 0 {
		return bm, true, nil // every constant outside the zone map: Data untouched
	}
	if err := ec.evalInts(intSet{lo: uint64(least), span: uint64(greatest) - uint64(least), member: member}, bm); err != nil {
		return nil, false, err
	}
	if err := ec.clearNulls(bm); err != nil {
		return nil, false, err
	}
	return bm, true, nil
}

// intSet is what an integer kernel tests each value against: the range
// [lo, lo+span], narrowed to member when that is non-nil. The range test
// is one unsigned compare in wrapping arithmetic — v is inside exactly
// when uint64(v)-lo <= span — which holds for every int64 lo <= hi, the
// extremes included, with nothing to clamp.
type intSet struct {
	lo, span uint64
	member   map[int64]struct{}
}

func (s intSet) contains(v int64) bool {
	if uint64(v)-s.lo > s.span {
		return false
	}
	if s.member == nil {
		return true
	}
	_, ok := s.member[v]
	return ok
}

// evalInts streams the encoded Int64 values and sets bm's bit for every
// row whose value is in set. It verifies the checksum first, never
// materializes a decoded slice, and — runs of RLE apart — stores bm one
// 64-row word at a time.
func (ec *EncodedColumn) evalInts(set intSet, bm *columnar.Bitmap) error {
	if err := ec.verify(); err != nil {
		return err
	}
	data := ec.Data
	cnt, sz := binary.Uvarint(data)
	if sz <= 0 {
		return fmt.Errorf("%w: bad count", ErrCorrupt)
	}
	n := ec.Stats.NumValues
	if cnt != uint64(n) {
		return fmt.Errorf("%w: value count %d, header says %d", ErrCorrupt, cnt, n)
	}
	data = data[sz:]
	switch ec.Encoding {
	case RLE:
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
			if set.contains(unzigzag(u)) {
				bm.Fill(pos, pos+int(run))
			}
			pos += int(run)
		}
		return nil
	case DeltaVarint:
		prev := int64(0)
		for base := 0; base < n; base += 64 {
			lim := min(64, n-base)
			var w uint64
			for j := 0; j < lim; j++ {
				u, sz := binary.Uvarint(data)
				if sz <= 0 {
					return fmt.Errorf("%w: truncated delta stream", ErrCorrupt)
				}
				data = data[sz:]
				prev += unzigzag(u)
				in := uint64(prev)-set.lo <= set.span
				if set.member != nil && in {
					_, in = set.member[prev]
				}
				w = w>>1 | b2u(in)<<63
			}
			bm.SetWord(base>>6, w>>uint(64-lim))
		}
		return nil
	case BitPacked:
		if n == 0 {
			return nil
		}
		r, err := newBitPackedReader(ec.Data)
		if err != nil {
			return err
		}
		if r.width == 0 {
			if set.contains(r.min) {
				bm.Fill(0, n)
			}
			return nil
		}
		// The packed value is v-min, so shifting the range by min tests
		// it without reconstructing v; only values inside the range are
		// then looked up in member. A narrow column tests several packed
		// values per load (swarRange), a wide one one at a time.
		lo := set.lo - uint64(r.min)
		sw, swar := newSWARRange(r.width, r.mask, lo, set.span)
		for base := 0; base < n; base += 64 {
			var w uint64
			if swar {
				w = sw.word(r.payload, base, min(64, n-base))
			} else {
				w = r.rangeWord(base, min(64, n-base), lo, set.span)
			}
			if set.member != nil {
				for hits := w; hits != 0; hits &= hits - 1 {
					j := bits.TrailingZeros64(hits)
					if !set.contains(r.at(base + j)) {
						w &^= 1 << uint(j)
					}
				}
			}
			bm.SetWord(base>>6, w)
		}
		return nil
	}
	return fmt.Errorf("%w: encoding %v invalid for BIGINT", ErrCorrupt, ec.Encoding)
}

func above(v, bound float64, inc bool) bool { return v > bound || (inc && v == bound) }
func below(v, bound float64, inc bool) bool { return v < bound || (inc && v == bound) }

// EvalFloatRange evaluates a float range predicate with inclusive or
// exclusive bounds over a Plain-encoded Float64 column.
func (ec *EncodedColumn) EvalFloatRange(lo, hi float64, incLo, incHi bool) (*columnar.Bitmap, bool, error) {
	if ec.Type != columnar.Float64 || ec.Encoding != Plain {
		return nil, false, nil
	}
	n := ec.Stats.NumValues
	bm := columnar.NewBitmap(n)
	if ec.Stats.NullCount == n {
		return bm, true, nil
	}
	if ec.Stats.HasMinMax {
		if !above(ec.Stats.MaxF, lo, incLo) || !below(ec.Stats.MinF, hi, incHi) {
			return bm, true, nil // no overlap: Data untouched
		}
		if above(ec.Stats.MinF, lo, incLo) && below(ec.Stats.MaxF, hi, incHi) {
			return ec.allTrueMinusNulls(bm) // full cover: Data untouched
		}
	}
	if err := ec.verify(); err != nil {
		return nil, false, err
	}
	data := ec.Data
	cnt, sz := binary.Uvarint(data)
	if sz <= 0 || int(cnt) != n {
		return nil, false, fmt.Errorf("%w: bad float count", ErrCorrupt)
	}
	data = data[sz:]
	if uint64(len(data)) < cnt*8 {
		return nil, false, fmt.Errorf("%w: float data truncated", ErrCorrupt)
	}
	inLo, inHi := b2u(incLo), b2u(incHi)
	for base := 0; base < n; base += 64 {
		lim := min(64, n-base)
		var w uint64
		for j := 0; j < lim; j++ {
			v := lefloat(data[(base+j)*8:])
			in := (b2u(v > lo) | b2u(v == lo)&inLo) & (b2u(v < hi) | b2u(v == hi)&inHi)
			w = w>>1 | in<<63
		}
		bm.SetWord(base>>6, w>>uint(64-lim))
	}
	if err := ec.clearNulls(bm); err != nil {
		return nil, false, err
	}
	return bm, true, nil
}

// EvalStringMatch evaluates an arbitrary per-value string predicate over
// a Dict-encoded column by testing each dictionary entry once and then
// streaming the per-row codes. Plain string columns report ok=false (a
// per-row walk would decode anyway, so the caller's fallback is honest).
func (ec *EncodedColumn) EvalStringMatch(match func(string) bool) (*columnar.Bitmap, bool, error) {
	if ec.Type != columnar.String || ec.Encoding != Dict {
		return nil, false, nil
	}
	n := ec.Stats.NumValues
	bm := columnar.NewBitmap(n)
	if ec.Stats.NullCount == n {
		return bm, true, nil
	}
	if err := ec.verify(); err != nil {
		return nil, false, err
	}
	dict, codesData, err := splitDict(ec.Data)
	if err != nil {
		return nil, false, err
	}
	matched := make([]bool, len(dict))
	anyMatch := false
	for i, s := range dict {
		matched[i] = match(s)
		anyMatch = anyMatch || matched[i]
	}
	if !anyMatch {
		return bm, true, nil // no dictionary entry matches: codes never read
	}
	cnt, sz := binary.Uvarint(codesData)
	if sz <= 0 {
		return nil, false, fmt.Errorf("%w: bad code count", ErrCorrupt)
	}
	if int(cnt) != n {
		return nil, false, fmt.Errorf("%w: code count %d, header says %d", ErrCorrupt, cnt, n)
	}
	if cnt == 0 {
		return bm, true, nil
	}
	r, err := newBitPackedReader(codesData)
	if err != nil {
		return nil, false, err
	}
	for base := 0; base < n; base += 64 {
		lim := min(64, n-base)
		var w uint64
		for j := 0; j < lim; j++ {
			c := uint64(r.at(base + j))
			if c >= uint64(len(matched)) {
				return nil, false, fmt.Errorf("%w: dict code %d out of range", ErrCorrupt, int64(c))
			}
			w = w>>1 | b2u(matched[c])<<63
		}
		bm.SetWord(base>>6, w>>uint(64-lim))
	}
	if err := ec.clearNulls(bm); err != nil {
		return nil, false, err
	}
	return bm, true, nil
}

// splitDict parses a Dict payload into the dictionary entries and the
// bit-packed codes block. The entries are substrings of one copy of the
// table's bytes — two allocations whatever the dictionary's size, and a
// copy, so the entries outlive the payload as every decoded value must.
func splitDict(data []byte) ([]string, []byte, error) {
	nd, sz := binary.Uvarint(data)
	if sz <= 0 || nd > math.MaxInt32 { // a code is an int32
		return nil, nil, fmt.Errorf("%w: bad dict size", ErrCorrupt)
	}
	dictBytes, _, err := dictSectionSizes(data) // checks every length it walks
	if err != nil {
		return nil, nil, err
	}
	table := string(data[:dictBytes])
	dict := make([]string, nd)
	off := sz
	for i := range dict {
		l, sz := binary.Uvarint(data[off:])
		off += sz
		dict[i] = table[off : off+int(l)]
		off += int(l)
	}
	pl, sz := binary.Uvarint(data[off:])
	return dict, data[off+sz:][:pl], nil
}

// bitPackedReader gives random access into an EncodeBitPacked payload.
type bitPackedReader struct {
	n       int
	min     int64
	width   uint
	payload []byte
	mask    uint64
}

func newBitPackedReader(data []byte) (bitPackedReader, error) {
	cnt, sz := binary.Uvarint(data)
	if sz <= 0 {
		return bitPackedReader{}, fmt.Errorf("%w: bad bit-packed count", ErrCorrupt)
	}
	data = data[sz:]
	r := bitPackedReader{n: int(cnt)}
	if cnt == 0 {
		return r, nil
	}
	mz, sz := binary.Uvarint(data)
	if sz <= 0 {
		return bitPackedReader{}, fmt.Errorf("%w: bad bit-packed min", ErrCorrupt)
	}
	data = data[sz:]
	r.min = unzigzag(mz)
	if len(data) < 1 {
		return bitPackedReader{}, fmt.Errorf("%w: missing bit width", ErrCorrupt)
	}
	r.width = uint(data[0])
	r.payload = data[1:]
	if r.width > 56 && r.width != 64 {
		return bitPackedReader{}, fmt.Errorf("%w: unsupported bit width %d", ErrCorrupt, r.width)
	}
	if r.width > 0 {
		if uint64(len(r.payload)) < (cnt*uint64(r.width)+7)/8 {
			return bitPackedReader{}, fmt.Errorf("%w: bit-packed data truncated", ErrCorrupt)
		}
		r.mask = uint64(1)<<r.width - 1 // all ones at width 64
	}
	return r, nil
}

// at returns value i, read with one unaligned 8-byte load: at most 56
// bits starting at most 7 bits into the window always fit, and width 64
// is byte-aligned. The caller must keep i within [0, n).
func (r *bitPackedReader) at(i int) int64 {
	if r.width == 0 {
		return r.min
	}
	bitpos := i * int(r.width)
	return r.min + int64(load64(r.payload, bitpos>>3)>>(uint(bitpos)&7)&r.mask)
}

// gatherWord stores in dst, in row order, the value of row base+j for
// every set bit j of w, and returns how many that is: a full word is the
// sequential unpack of 64 consecutive values, any other word reads only
// the rows it selects. At width zero the empty payload loads as zero and
// every value comes out as min, with no case of its own.
func (r *bitPackedReader) gatherWord(dst []int64, base int, w uint64) int {
	payload, width, mask, minV := r.payload, int(r.width), r.mask, r.min
	bit := base * width
	if w == ^uint64(0) {
		dst = dst[:64]
		for j := range dst {
			dst[j] = minV + int64(load64(payload, bit>>3)>>(uint(bit)&7)&mask)
			bit += width
		}
		return 64
	}
	k := 0
	for ; w != 0; w &= w - 1 {
		at := bit + bits.TrailingZeros64(w)*width
		dst[k] = minV + int64(load64(payload, at>>3)>>(uint(at)&7)&mask)
		k++
	}
	return k
}

// rangeWord tests the lim <= 64 packed values from base on against
// [lo, lo+span] — one unsigned compare each, in wrapping arithmetic —
// and returns one result bit per value, value base in bit 0. It is its
// own function so the loop's few live values stay in registers. The
// width must be above zero.
func (r *bitPackedReader) rangeWord(base, lim int, lo, span uint64) (w uint64) {
	payload, width, mask := r.payload, int(r.width), r.mask
	bit := base * width
	for j := 0; j < lim; j++ {
		d := load64(payload, bit>>3) >> (uint(bit) & 7) & mask
		w = w>>1 | b2u(d-lo <= span)<<63
		bit += width
	}
	return w >> uint(64-lim)
}

// swarRange tests k packed values of one BITPACK column per 64-bit load
// against a range, with SWAR ("SIMD within a register") arithmetic. A
// load at most 7 bits into its window holds 57 whole bits, so k =
// min(⌊57/width⌋, width) values. Masked where they lie, the even values
// and the odd ones each sit in lanes 2·width bits apart, value j in bits
// [j·width, (j+1)·width) and its lane's spare bit H at (j+1)·width. With
// the range clamped to [a, b] ⊆ [0, mask], (d|H)−a and (b|H)−d keep H
// exactly when a ≤ d and d ≤ b, and never borrow from the lane above.
// The two halves' H bits are then disjoint, value j's at (j+1)·width, and
// one multiply by Σ 2^(64−k−width−i(width−1)), i < k, gathers them into
// the top k bits: value j's product by term i lands at
// 64−k+j+(j−i)(width−1), and k ≤ width puts every one of those on its
// own bit, so nothing carries into the top k.
type swarRange struct {
	k, width uint      // values per load, bits per value
	lanes    [2]uint64 // the even, then the odd values' bits
	h        [2]uint64 // their lanes' spare bits H
	ha, bh   [2]uint64 // H−a and b|H in each of their lanes
	gather   uint64    // the multiplier
}

// swarMinValues is the fewest values one load must test for the SWAR
// word to beat rangeWord. Timed against it (EvalIntRange over 65,536
// rows, CRC included, 2 cores): 0.25–0.57× its time at widths 8 to 17
// (k = 7 to 3), 0.7–0.9× at widths 20, 24 and 28 (k = 2), and 1.9–2×
// at width 30 (k = 1).
const swarMinValues = 2

// newSWARRange builds the constants for the packed values d in [0, mask]
// with d−lo ≤ span in wrapping arithmetic; the width must be above zero.
// ok is false when the width puts fewer than swarMinValues values in a
// load, when no packed value is in the range, and when those that are do
// not form one interval — only possible when min+mask passes maxInt64,
// which no encoder writes; rangeWord is exact in every case.
func newSWARRange(width uint, mask, lo, span uint64) (s swarRange, ok bool) {
	k := min(57/width, width)
	if k < swarMinValues {
		return s, false
	}
	// The range is [lo, lo+span] modulo 2^64. When it wraps, the part
	// from lo up lies above the frame unless lo <= mask, and then the
	// values in the range are [0, end] ∪ [lo, mask]: two intervals.
	end, carry := bits.Add64(lo, span, 0)
	a, b := lo, min(end, mask)
	if carry != 0 {
		if lo <= mask {
			return s, false
		}
		a = 0
	}
	if a > b {
		return s, false
	}
	s = swarRange{k: k, width: width}
	for j := uint(0); j < k; j++ {
		at, half := j*width, j%2
		s.lanes[half] |= mask << at
		s.h[half] |= (mask + 1) << at
		s.ha[half] |= (mask + 1 - a) << at
		s.bh[half] |= (mask + 1 + b) << at
		s.gather |= uint64(1) << (64 - k - width - j*(width-1)) // value j's term, not a row's bit
	}
	return s, true
}

// word tests the lim <= 64 packed values of payload from base on and
// returns one result bit per value, value base in bit 0. A word takes
// ⌈lim/k⌉ loads; the last one's values past the word shift out of it,
// and SetWord drops any past the column's end.
func (s *swarRange) word(payload []byte, base, lim int) (w uint64) {
	k, top, kbits := int(s.k), (64-s.k)&63, int(s.k*s.width)
	bit := base * int(s.width)
	for g := 0; g < lim; g += k {
		x := load64(payload, bit>>3) >> (uint(bit) & 7)
		even, odd := x&s.lanes[0], x&s.lanes[1]
		even = (even + s.ha[0]) & (s.bh[0] - even) & s.h[0]
		odd = (odd + s.ha[1]) & (s.bh[1] - odd) & s.h[1]
		w |= (even | odd) * s.gather >> top << (uint(g) & 63)
		bit += kbits
	}
	return w
}

// b2u is 1 for true and 0 for false, without a branch. Every kernel that
// builds a 64-row result word shifts each row's bit in from the top —
// w = w>>1 | b2u(test)<<63, then w>>(64-lim) for a short last word —
// because whether a row matches is what a branch cannot predict at middling
// selectivity, and a constant shift is cheaper than w |= b2u(test)<<j.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// load64 reads the little-endian word at b[off:]; where fewer than eight
// bytes remain — the last values of a packed payload, the last bytes of
// a null bitmap — the missing high bytes read as zero.
func load64(b []byte, off int) uint64 {
	if off+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[off:])
	}
	return load64Tail(b, off)
}

func load64Tail(b []byte, off int) uint64 {
	var w uint64
	for j := len(b) - 1; j >= off; j-- {
		w = w<<8 | uint64(b[j])
	}
	return w
}

func lefloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
