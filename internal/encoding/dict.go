package encoding

import (
	"encoding/binary"
	"fmt"

	"repro/internal/columnar"
)

// EncodeDict dictionary-encodes strings: a dictionary of the distinct
// values in order of first appearance followed by per-row codes,
// themselves bit-packed. Low-cardinality string columns (flags,
// countries, statuses) shrink dramatically, and equality predicates can
// be evaluated on codes.
func EncodeDict(vals []string) []byte {
	d := buildDict(vals)
	return d.appendTo(make([]byte, 0, d.size()))
}

// dictionary is one walk over a VARCHAR column: its distinct values in
// order of first appearance and each row's code into them — everything
// DICT writes — and, taken in the same walk, the exact size of the
// column's PLAIN block, so both candidates are sized before either is
// written.
type dictionary struct {
	entries   []string
	codes     []int64
	plainSize int
}

func buildDict(vals []string) dictionary {
	d := dictionary{
		entries:   make([]string, 0, 16),
		codes:     make([]int64, len(vals)),
		plainSize: uvarintLen(uint64(len(vals))),
	}
	codeOf := make(map[string]int64, 16)
	for i, s := range vals {
		c, ok := codeOf[s]
		if !ok {
			c = int64(len(d.entries))
			codeOf[s] = c
			d.entries = append(d.entries, s)
		}
		d.codes[i] = c
		d.plainSize += uvarintLen(uint64(len(s))) + len(s)
	}
	return d
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

// DecodeDict reverses EncodeDict. It is the gather-decode kernel under a
// full selection: the codes are read through the bit-packed reader, never
// decoded into a slice of their own.
func DecodeDict(data []byte) ([]string, error) {
	dict, codesData, err := splitDict(data)
	if err != nil {
		return nil, err
	}
	r, err := newBitPackedReader(codesData)
	if err != nil {
		return nil, err
	}
	all := columnar.NewBitmap(r.n)
	all.Fill(0, r.n)
	out := make([]string, r.n)
	if err := r.lookup(out, dict, all.Words()); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodePlainStrings stores strings as length-prefixed bytes, the fallback
// when dictionary encoding would not pay off. Its size function is the
// dictionary's plainSize.
func EncodePlainStrings(vals []string) []byte { return appendPlainStrings(nil, vals) }

func appendPlainStrings(out []byte, vals []string) []byte {
	out = binary.AppendUvarint(out, uint64(len(vals)))
	for _, s := range vals {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return out
}

// DecodePlainStrings reverses EncodePlainStrings.
func DecodePlainStrings(data []byte) ([]string, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: bad string count", ErrCorrupt)
	}
	data = data[sz:]
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < l {
			return nil, fmt.Errorf("%w: truncated string", ErrCorrupt)
		}
		data = data[sz:]
		out = append(out, string(data[:l]))
		data = data[l:]
	}
	return out, nil
}
