package encoding

import (
	"encoding/binary"
	"fmt"

	"repro/internal/columnar"
)

// EncodeDict dictionary-encodes strings: a sorted-by-first-appearance
// dictionary of distinct values followed by per-row codes, themselves
// bit-packed. Low-cardinality string columns (flags, countries, statuses)
// shrink dramatically, and equality predicates can be evaluated on codes.
func EncodeDict(vals []string) []byte {
	dict := make([]string, 0, 16)
	codeOf := make(map[string]int64, 16)
	codes := make([]int64, len(vals))
	for i, s := range vals {
		c, ok := codeOf[s]
		if !ok {
			c = int64(len(dict))
			codeOf[s] = c
			dict = append(dict, s)
		}
		codes[i] = c
	}
	out := putUvarint(nil, uint64(len(dict)))
	for _, s := range dict {
		out = putUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	packed := EncodeBitPacked(codes)
	out = putUvarint(out, uint64(len(packed)))
	out = append(out, packed...)
	return out
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
// when dictionary encoding would not pay off.
func EncodePlainStrings(vals []string) []byte {
	out := putUvarint(nil, uint64(len(vals)))
	for _, s := range vals {
		out = putUvarint(out, uint64(len(s)))
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
