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
type dictionary struct {
	entries   []string
	codes     []int32
	plainSize int
	bytes     int64
}

func buildDict(vals []string) dictionary {
	d := dictionary{
		entries:   make([]string, 0, 16),
		codes:     make([]int32, len(vals)),
		plainSize: uvarintLen(uint64(len(vals))),
	}
	codeOf := make(map[string]int32, 16)
	for i, s := range vals {
		c, ok := codeOf[s]
		if !ok {
			c = int32(len(d.entries))
			codeOf[s] = c
			d.entries = append(d.entries, s)
		}
		d.codes[i] = c
		d.plainSize += uvarintLen(uint64(len(s))) + len(s)
		d.bytes += int64(len(s))
	}
	return d
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
	for i, c := range d.codes {
		if i < nulls.Len() && nulls.Get(i) {
			continue
		}
		held[c] = true
		bytes += int64(len(vals[i]))
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
	packed := bitPackedSize(len(d.codes), 0, d.maxCode())
	return n + uvarintLen(uint64(packed)) + packed
}

func (d *dictionary) appendTo(out []byte) []byte {
	out = binary.AppendUvarint(out, uint64(len(d.entries)))
	for _, s := range d.entries {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	out = binary.AppendUvarint(out, uint64(bitPackedSize(len(d.codes), 0, d.maxCode())))
	return appendBitPacked(out, d.codes, 0, d.maxCode())
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
