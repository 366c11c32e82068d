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

// appendDeltaVarint writes DELTA: int64 values as zigzag varints of
// consecutive deltas. Sorted or slowly varying columns (timestamps,
// surrogate keys) compress to a byte or two per value.
func appendDeltaVarint(out []byte, vals []int64) []byte {
	out = binary.AppendUvarint(out, uint64(len(vals)))
	prev := int64(0)
	for _, v := range vals {
		out = binary.AppendUvarint(out, zigzag(v-prev))
		prev = v
	}
	return out
}

// appendRLEInt64 writes RLE: int64 values as (value, runLength) pairs of
// varints. Low-cardinality or sorted columns benefit.
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

// appendBitPacked writes BITPACK, frame-of-reference plus fixed-width bit
// packing: each of vals, every one inside the frame [lo, hi] with lo the
// smallest, is stored as v - lo in bitPackedWidth(lo, hi) bits. The
// packed bits go out eight bytes at a time: a flushed word holds only
// bits already written, so it never reaches past the block's last byte.
// A DICT column's codes, one or four bytes each (dictionary), are packed
// by the same loop.
func appendBitPacked[T uint8 | int32 | int64](out []byte, vals []T, lo, hi int64) []byte {
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
			out = binary.LittleEndian.AppendUint64(out, uint64(int64(v))-uint64(lo))
		}
		return out
	}
	start := len(out)
	out = append(out, make([]byte, (len(vals)*int(width)+7)/8)...)
	packed := out[start:]
	var acc uint64
	var nbits, pos uint
	for _, v := range vals {
		d := uint64(int64(v)) - uint64(lo)
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

// float64sSize is the exact length of n floats' block.
func float64sSize(n int) int { return uvarintLen(uint64(n)) + 8*n }

// appendFloat64s writes PLAIN DOUBLE: the count, then each value's
// little-endian IEEE 754 bits.
func appendFloat64s(out []byte, vals []float64) []byte {
	out = binary.AppendUvarint(out, uint64(len(vals)))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// boolsSize is the exact length of n booleans' block.
func boolsSize(n int) int { return uvarintLen(uint64(n)) + (n+7)/8 }

// appendBools writes BOOLEAN, and a column's null section: the count,
// then the values packed into a bitmap, LSB first.
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

// appendBitmapBools writes the block appendBools writes for n booleans,
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

// splitBools parses an appendBools block into its count and its packed
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
