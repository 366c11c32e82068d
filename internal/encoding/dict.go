package encoding

import (
	"encoding/binary"

	"repro/internal/columnar"
)

// dictionary is one walk over a VARCHAR column: its distinct values in
// order of first appearance and each row's code into them — everything
// DICT writes — and, taken in the same walk, the exact size of the
// column's PLAIN block, so both candidates are sized before either is
// written, and Σ len over the rows for the planner's statistics. DICT is
// the entries followed by the per-row codes, themselves bit-packed:
// low-cardinality string columns (flags, countries, statuses) shrink
// dramatically, and equality predicates can be evaluated on codes.
// The codes are in the one of codes8 and codes32 that is not nil: a
// byte a row up to 256 entries, widened once to four when the walk finds
// the 257th.
type dictionary struct {
	entries   []string
	codes8    []uint8
	codes32   []int32
	rows      int
	plainSize int
	bytes     int64
}

func buildDict(vals []string) dictionary {
	d := dictionary{
		entries:   make([]string, 0, 16),
		codes8:    make([]uint8, len(vals)),
		rows:      len(vals),
		plainSize: uvarintLen(uint64(len(vals))),
	}
	codeOf := make(map[string]int32, 16)
	if i := assignCodes(&d, d.codes8, vals, 0, codeOf); i < len(vals) {
		d.codes32 = make([]int32, len(vals))
		for j, c := range d.codes8[:i] {
			d.codes32[j] = int32(c)
		}
		d.codes8 = nil
		assignCodes(&d, d.codes32, vals, i, codeOf)
	}
	return d
}

// assignCodes gives rows i… of vals their codes in codes, and returns
// the first row whose code T cannot hold, len(vals) when there is none.
func assignCodes[T uint8 | int32](d *dictionary, codes []T, vals []string, i int, codeOf map[string]int32) int {
	for ; i < len(vals); i++ {
		s := vals[i]
		c, ok := codeOf[s]
		if !ok {
			c = int32(len(d.entries))
			if int32(T(c)) != c {
				return i
			}
			codeOf[s] = c
			d.entries = append(d.entries, s)
		}
		codes[i] = T(c)
		d.plainSize += uvarintLen(uint64(len(s))) + len(s)
		d.bytes += int64(len(s))
	}
	return i
}

// code is row i's code.
func (d *dictionary) code(i int) int32 {
	if d.codes8 != nil {
		return int32(d.codes8[i])
	}
	return d.codes32[i]
}

// present is the entries some row not set in nulls (nil: every row)
// holds, and Σ len over those rows. Without NULLs that is every entry
// and every row, so nothing is walked; with them one walk over the codes
// marks the entries a non-NULL row holds, so the value a NULL row stores
// ("") counts only where a non-NULL row holds it too.
func (d *dictionary) present(vals []string, nulls *columnar.Bitmap) ([]string, int64) {
	if nulls == nil {
		return d.entries, d.bytes
	}
	held := make([]bool, len(d.entries))
	var bytes int64
	for i, s := range vals {
		if i < nulls.Len() && nulls.Get(i) {
			continue
		}
		held[d.code(i)] = true
		bytes += int64(len(s))
	}
	out := make([]string, 0, len(d.entries))
	for c, s := range d.entries {
		if held[c] {
			out = append(out, s)
		}
	}
	return out, bytes
}

// maxCode is the top of the codes' frame; the bottom is 0, the first
// row's code.
func (d *dictionary) maxCode() int64 { return int64(len(d.entries) - 1) }

// size is DICT's size function: the exact length appendTo appends.
func (d *dictionary) size() int {
	n := uvarintLen(uint64(len(d.entries)))
	for _, s := range d.entries {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	packed := bitPackedSize(d.rows, 0, d.maxCode())
	return n + uvarintLen(uint64(packed)) + packed
}

func (d *dictionary) appendTo(out []byte) []byte {
	out = binary.AppendUvarint(out, uint64(len(d.entries)))
	for _, s := range d.entries {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	out = binary.AppendUvarint(out, uint64(bitPackedSize(d.rows, 0, d.maxCode())))
	if d.codes8 != nil {
		return appendBitPacked(out, d.codes8, 0, d.maxCode())
	}
	return appendBitPacked(out, d.codes32, 0, d.maxCode())
}

// appendPlainStrings writes PLAIN strings as length-prefixed bytes, the
// fallback when dictionary encoding would not pay off. Its size function
// is the dictionary's plainSize.
func appendPlainStrings(out []byte, vals []string) []byte {
	out = binary.AppendUvarint(out, uint64(len(vals)))
	for _, s := range vals {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return out
}
