package encoding

import (
	"encoding/binary"
	"fmt"
)

// The LZ compressor below is a small, dependency-free LZ77 variant used to
// model the general-purpose block compression that cloud storage layers
// apply before shipping data (paper Section 2.2: serialization and
// compression are mandatory steps of the cloud data path). The format is a
// stream of operations:
//
//	0x00 <uvarint len> <len literal bytes>
//	0x01 <uvarint distance> <uvarint length>   -- copy from history
//
// Matches are found greedily with a hash table over 4-byte prefixes.

const (
	lzOpLiteral = 0x00
	lzOpMatch   = 0x01
	lzMinMatch  = 4
	lzHashBits  = 15
)

// CompressLZ compresses data. The output always decompresses back to the
// exact input; incompressible input grows by a small framing overhead.
func CompressLZ(data []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(data)))
	if len(data) == 0 {
		return out
	}
	var table [1 << lzHashBits]int // position+1 of last occurrence of hash
	litStart := 0
	i := 0
	flushLiterals := func(end int) {
		if end > litStart {
			out = append(out, lzOpLiteral)
			out = binary.AppendUvarint(out, uint64(end-litStart))
			out = append(out, data[litStart:end]...)
		}
	}
	for i+lzMinMatch <= len(data) {
		h := lzHash(data[i:])
		cand := table[h] - 1
		table[h] = i + 1
		if cand >= 0 && cand < i && data[cand] == data[i] &&
			data[cand+1] == data[i+1] && data[cand+2] == data[i+2] && data[cand+3] == data[i+3] {
			// Extend the match.
			length := lzMinMatch
			for i+length < len(data) && data[cand+length] == data[i+length] {
				length++
			}
			flushLiterals(i)
			out = append(out, lzOpMatch)
			out = binary.AppendUvarint(out, uint64(i-cand))
			out = binary.AppendUvarint(out, uint64(length))
			i += length
			litStart = i
			continue
		}
		i++
	}
	flushLiterals(len(data))
	return out
}

// DecompressLZ reverses CompressLZ.
func DecompressLZ(data []byte) ([]byte, error) {
	size, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: bad LZ header", ErrCorrupt)
	}
	data = data[sz:]
	out := make([]byte, 0, size)
	for uint64(len(out)) < size {
		if len(data) == 0 {
			return nil, fmt.Errorf("%w: LZ stream truncated", ErrCorrupt)
		}
		op := data[0]
		data = data[1:]
		switch op {
		case lzOpLiteral:
			l, sz := binary.Uvarint(data)
			if sz <= 0 || uint64(len(data)-sz) < l {
				return nil, fmt.Errorf("%w: LZ literal truncated", ErrCorrupt)
			}
			data = data[sz:]
			out = append(out, data[:l]...)
			data = data[l:]
		case lzOpMatch:
			dist, sz := binary.Uvarint(data)
			if sz <= 0 {
				return nil, fmt.Errorf("%w: LZ match distance truncated", ErrCorrupt)
			}
			data = data[sz:]
			length, sz := binary.Uvarint(data)
			if sz <= 0 {
				return nil, fmt.Errorf("%w: LZ match length truncated", ErrCorrupt)
			}
			data = data[sz:]
			if dist == 0 || dist > uint64(len(out)) {
				return nil, fmt.Errorf("%w: LZ match distance %d out of range", ErrCorrupt, dist)
			}
			// Byte-at-a-time copy: matches may overlap their own output.
			start := len(out) - int(dist)
			for k := uint64(0); k < length; k++ {
				out = append(out, out[start+int(k)])
			}
		default:
			return nil, fmt.Errorf("%w: unknown LZ op 0x%02x", ErrCorrupt, op)
		}
	}
	if uint64(len(out)) != size {
		return nil, fmt.Errorf("%w: LZ output size mismatch", ErrCorrupt)
	}
	return out, nil
}

func lzHash(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	return (v * 2654435761) >> (32 - lzHashBits)
}
