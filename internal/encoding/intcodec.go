// Package encoding implements the on-disk and on-wire codecs the engine
// uses: lightweight integer encodings (RLE, delta+varint, frame-of-
// reference bit-packing), dictionary encoding for strings, a byte-oriented
// LZ compressor, checksums, and a self-describing encoded-column format
// with min/max statistics for zone-map pruning.
//
// The paper (Sections 1 and 2.2) stresses that cloud query plans must
// treat compression, decoding and format transformation as first-class
// operators along the data path; these codecs are those operators'
// substrate.
package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/columnar"
)

// ErrCorrupt is returned when encoded data fails structural validation or
// checksum verification.
var ErrCorrupt = errors.New("encoding: corrupt data")

// zigzag maps signed integers to unsigned so that small negative values
// get short varints.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the length of v's uvarint encoding, what
// binary.AppendUvarint appends: one byte per 7 significant bits.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// int64Sizes is what one pass over a BIGINT column learns: the smallest
// and largest value (the frame of reference BITPACK stores, and the zone
// map when the column has no NULLs) and the exact byte length of each
// candidate codec. It is the size function of RLE and DELTA, which it
// measures from run boundaries and from the varint length of each zigzag
// delta; BITPACK's is bitPackedSize, from the frame.
type int64Sizes struct {
	min, max              int64
	rle, delta, bitPacked int
}

func sizeInt64s(vals []int64) int64Sizes {
	n := len(vals)
	s := int64Sizes{rle: uvarintLen(uint64(n)), delta: uvarintLen(uint64(n))}
	if n == 0 {
		s.bitPacked = bitPackedSize(0, 0, 0)
		return s
	}
	s.min, s.max = vals[0], vals[0]
	run, runStart, prev := vals[0], 0, int64(0)
	for i, v := range vals {
		s.delta += uvarintLen(zigzag(v - prev))
		prev = v
		if v == run {
			continue
		}
		s.rle += uvarintLen(zigzag(run)) + uvarintLen(uint64(i-runStart))
		run, runStart = v, i
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.rle += uvarintLen(zigzag(run)) + uvarintLen(uint64(n-runStart))
	s.bitPacked = bitPackedSize(n, s.min, s.max)
	return s
}

// EncodeDeltaVarint encodes int64 values as zigzag varints of consecutive
// deltas. Sorted or slowly varying columns (timestamps, surrogate keys)
// compress to a byte or two per value.
func EncodeDeltaVarint(vals []int64) []byte { return appendDeltaVarint(nil, vals) }

func appendDeltaVarint(out []byte, vals []int64) []byte {
	out = binary.AppendUvarint(out, uint64(len(vals)))
	prev := int64(0)
	for _, v := range vals {
		out = binary.AppendUvarint(out, zigzag(v-prev))
		prev = v
	}
	return out
}

// DecodeDeltaVarint reverses EncodeDeltaVarint.
func DecodeDeltaVarint(data []byte) ([]int64, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: bad delta-varint count", ErrCorrupt)
	}
	data = data[sz:]
	out := make([]int64, 0, n)
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		u, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, fmt.Errorf("%w: truncated delta-varint stream", ErrCorrupt)
		}
		data = data[sz:]
		prev += unzigzag(u)
		out = append(out, prev)
	}
	return out, nil
}

// EncodeRLEInt64 run-length encodes int64 values as (value, runLength)
// pairs of varints. Low-cardinality or sorted columns benefit.
func EncodeRLEInt64(vals []int64) []byte { return appendRLEInt64(nil, vals) }

func appendRLEInt64(out []byte, vals []int64) []byte {
	out = binary.AppendUvarint(out, uint64(len(vals)))
	i := 0
	for i < len(vals) {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		out = binary.AppendUvarint(out, zigzag(vals[i]))
		out = binary.AppendUvarint(out, uint64(j-i))
		i = j
	}
	return out
}

// DecodeRLEInt64 reverses EncodeRLEInt64.
func DecodeRLEInt64(data []byte) ([]int64, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: bad RLE count", ErrCorrupt)
	}
	data = data[sz:]
	out := make([]int64, 0, n)
	for uint64(len(out)) < n {
		u, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, fmt.Errorf("%w: truncated RLE value", ErrCorrupt)
		}
		data = data[sz:]
		run, sz := binary.Uvarint(data)
		if sz <= 0 || run == 0 {
			return nil, fmt.Errorf("%w: truncated RLE run", ErrCorrupt)
		}
		data = data[sz:]
		if uint64(len(out))+run > n {
			return nil, fmt.Errorf("%w: RLE run overflows count", ErrCorrupt)
		}
		v := unzigzag(u)
		for k := uint64(0); k < run; k++ {
			out = append(out, v)
		}
	}
	return out, nil
}

// EncodeBitPacked encodes int64 values with frame-of-reference plus
// fixed-width bit packing: each value is stored as (v - min) in the
// minimum number of bits needed for (max - min).
func EncodeBitPacked(vals []int64) []byte {
	var lo, hi int64
	if len(vals) > 0 {
		lo, hi = slices.Min(vals), slices.Max(vals)
	}
	return appendBitPacked(make([]byte, 0, bitPackedSize(len(vals), lo, hi)), vals, lo, hi)
}

// bitPackedWidth is the bits BITPACK stores each value in for the frame
// [lo, hi]. Widths above 56 bits cannot be streamed through a 64-bit
// accumulator without overflow and save little anyway; those are stored
// byte-aligned.
func bitPackedWidth(lo, hi int64) int {
	if width := bits.Len64(uint64(hi) - uint64(lo)); width <= 56 {
		return width
	}
	return 64
}

// bitPackedSize is BITPACK's size function: the exact length of n values
// in the frame [lo, hi].
func bitPackedSize(n int, lo, hi int64) int {
	if n == 0 {
		return uvarintLen(0)
	}
	width := bitPackedWidth(lo, hi)
	return uvarintLen(uint64(n)) + uvarintLen(zigzag(lo)) + 1 + (n*width+7)/8
}

// appendBitPacked writes vals, every one inside the frame [lo, hi] with
// lo the smallest, as EncodeBitPacked's block. The packed bits go out
// eight bytes at a time: a flushed word holds only bits already
// written, so it never reaches past the block's last byte.
func appendBitPacked(out []byte, vals []int64, lo, hi int64) []byte {
	out = binary.AppendUvarint(out, uint64(len(vals)))
	if len(vals) == 0 {
		return out
	}
	width := uint(bitPackedWidth(lo, hi))
	out = binary.AppendUvarint(out, zigzag(lo))
	out = append(out, byte(width))
	if width == 0 {
		return out // all values equal min
	}
	if width == 64 {
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, uint64(v)-uint64(lo))
		}
		return out
	}
	start := len(out)
	out = append(out, make([]byte, (len(vals)*int(width)+7)/8)...)
	packed := out[start:]
	var acc uint64
	var nbits, pos uint
	for _, v := range vals {
		d := uint64(v) - uint64(lo)
		acc |= d << nbits
		if nbits += width; nbits >= 64 {
			binary.LittleEndian.PutUint64(packed[pos:], acc)
			pos += 8
			nbits -= 64
			acc = d >> (width - nbits) // the bits of d that did not fit; 0 when all did
		}
	}
	for ; nbits > 0; nbits -= min(nbits, 8) {
		packed[pos] = byte(acc)
		acc >>= 8
		pos++
	}
	return out
}

// DecodeBitPacked reverses EncodeBitPacked.
func DecodeBitPacked(data []byte) ([]int64, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: bad bit-packed count", ErrCorrupt)
	}
	data = data[sz:]
	if n == 0 {
		return []int64{}, nil
	}
	mz, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: bad bit-packed min", ErrCorrupt)
	}
	data = data[sz:]
	minV := unzigzag(mz)
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: missing bit width", ErrCorrupt)
	}
	width := uint(data[0])
	data = data[1:]
	if width > 64 {
		return nil, fmt.Errorf("%w: bit width %d > 64", ErrCorrupt, width)
	}
	out := make([]int64, 0, n)
	if width == 0 {
		for i := uint64(0); i < n; i++ {
			out = append(out, minV)
		}
		return out, nil
	}
	if width == 64 {
		if uint64(len(data)) < n*8 {
			return nil, fmt.Errorf("%w: bit-packed data truncated", ErrCorrupt)
		}
		for i := uint64(0); i < n; i++ {
			d := binary.LittleEndian.Uint64(data[i*8:])
			out = append(out, int64(uint64(minV)+d))
		}
		return out, nil
	}
	if width > 56 {
		return nil, fmt.Errorf("%w: unsupported bit width %d", ErrCorrupt, width)
	}
	need := (n*uint64(width) + 7) / 8
	if uint64(len(data)) < need {
		return nil, fmt.Errorf("%w: bit-packed data truncated", ErrCorrupt)
	}
	var acc uint64
	var nbits uint
	pos := 0
	mask := uint64(1)<<width - 1
	for i := uint64(0); i < n; i++ {
		for nbits < width {
			acc |= uint64(data[pos]) << nbits
			pos++
			nbits += 8
		}
		out = append(out, minV+int64(acc&mask))
		acc >>= width
		nbits -= width
	}
	return out, nil
}

// EncodeFloat64s stores floats as little-endian IEEE 754 bits.
func EncodeFloat64s(vals []float64) []byte {
	return appendFloat64s(make([]byte, 0, float64sSize(len(vals))), vals)
}

// float64sSize is the exact length of n floats' block.
func float64sSize(n int) int { return uvarintLen(uint64(n)) + 8*n }

func appendFloat64s(out []byte, vals []float64) []byte {
	out = binary.AppendUvarint(out, uint64(len(vals)))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// DecodeFloat64s reverses EncodeFloat64s.
func DecodeFloat64s(data []byte) ([]float64, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: bad float count", ErrCorrupt)
	}
	data = data[sz:]
	if uint64(len(data)) < n*8 {
		return nil, fmt.Errorf("%w: float data truncated", ErrCorrupt)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out, nil
}

// EncodeBools packs booleans into a bitmap.
func EncodeBools(vals []bool) []byte {
	return appendBools(make([]byte, 0, boolsSize(len(vals))), vals)
}

// boolsSize is the exact length of n booleans' block.
func boolsSize(n int) int { return uvarintLen(uint64(n)) + (n+7)/8 }

func appendBools(out []byte, vals []bool) []byte {
	out = binary.AppendUvarint(out, uint64(len(vals)))
	var cur byte
	var nbits uint
	for _, v := range vals {
		if v {
			cur |= 1 << nbits
		}
		nbits++
		if nbits == 8 {
			out = append(out, cur)
			cur, nbits = 0, 0
		}
	}
	if nbits > 0 {
		out = append(out, cur)
	}
	return out
}

// appendBitmapBools writes the block EncodeBools writes for n booleans,
// the true ones being the bits set in bm, straight from bm's words:
// both are LSB first, so each word is its eight bytes. bm may be shorter
// than n (a vector's null bitmap ends at its last NULL); the bits it
// lacks are false.
func appendBitmapBools(out []byte, bm *columnar.Bitmap, n int) []byte {
	out = binary.AppendUvarint(out, uint64(n))
	start := len(out)
	out = append(out, make([]byte, (n+7)/8)...)
	packed := out[start:]
	for wi, w := range bm.Words() {
		for b := wi * 8; w != 0; b++ {
			packed[b] = byte(w)
			w >>= 8
		}
	}
	return out
}

// splitBools parses an EncodeBools block into its count and its packed
// bits, LSB first, which are checked to be all there.
func splitBools(data []byte) (n uint64, packed []byte, err error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return 0, nil, fmt.Errorf("%w: bad bool count", ErrCorrupt)
	}
	if packed = data[sz:]; uint64(len(packed)) < (n+7)/8 {
		return 0, nil, fmt.Errorf("%w: bool data truncated", ErrCorrupt)
	}
	return n, packed, nil
}

// DecodeBools reverses EncodeBools.
func DecodeBools(data []byte) ([]bool, error) {
	n, data, err := splitBools(data)
	if err != nil {
		return nil, err
	}
	out := make([]bool, n)
	for i := uint64(0); i < n; i++ {
		out[i] = data[i>>3]&(1<<(i&7)) != 0
	}
	return out, nil
}
