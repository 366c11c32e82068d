package columnar

import (
	"fmt"
	"math/bits"
	"slices"
)

// Vector is one column of values of a single type, with optional null
// tracking. Only the slice matching the vector's type is populated;
// operators access it directly through the typed accessors for
// tight inner loops.
//
// A String vector is either plain (strs, one Go string per row) or
// dictionary-coded: codes, one per row, index dict, the decoded segment's
// dictionary, and there are no per-row strings. dict is non-nil exactly
// when the vector is coded; it is shared and nobody writes it. A coded
// vector keeps its form through Slice, filter and Compact; strings appear
// only where a caller asks for them (StringAt, Value, Strings), and an
// append turns the vector plain first.
type Vector struct {
	typ   Type
	ints  []int64
	flts  []float64
	strs  []string
	bools []bool
	codes []int32
	dict  []string
	nulls *Bitmap // nil when the vector has no nulls
}

// NewVector returns an empty vector of the given type with room for cap
// values.
func NewVector(t Type, capacity int) *Vector {
	v := &Vector{typ: t}
	switch t {
	case Int64:
		v.ints = make([]int64, 0, capacity)
	case Float64:
		v.flts = make([]float64, 0, capacity)
	case String:
		v.strs = make([]string, 0, capacity)
	case Bool:
		v.bools = make([]bool, 0, capacity)
	default:
		panic(fmt.Sprintf("columnar: unknown type %v", t))
	}
	return v
}

// FromInt64s wraps an int64 slice as a vector without copying.
func FromInt64s(vals []int64) *Vector { return &Vector{typ: Int64, ints: vals} }

// FromFloat64s wraps a float64 slice as a vector without copying.
func FromFloat64s(vals []float64) *Vector { return &Vector{typ: Float64, flts: vals} }

// FromStrings wraps a string slice as a vector without copying.
func FromStrings(vals []string) *Vector { return &Vector{typ: String, strs: vals} }

// FromBools wraps a bool slice as a vector without copying.
func FromBools(vals []bool) *Vector { return &Vector{typ: Bool, bools: vals} }

// FromCodes wraps dictionary codes as a coded String vector without
// copying: row i is dict[codes[i]]. Every code must index dict, which
// must not be nil.
func FromCodes(codes []int32, dict []string) *Vector {
	return &Vector{typ: String, codes: codes, dict: dict}
}

// Type reports the vector's type.
func (v *Vector) Type() Type { return v.typ }

// Len reports the number of values, including nulls.
func (v *Vector) Len() int {
	switch v.typ {
	case Int64:
		return len(v.ints)
	case Float64:
		return len(v.flts)
	case String:
		if v.dict != nil {
			return len(v.codes)
		}
		return len(v.strs)
	case Bool:
		return len(v.bools)
	}
	return 0
}

// Int64s returns the backing slice of an Int64 vector.
func (v *Vector) Int64s() []int64 { return v.ints }

// Float64s returns the backing slice of a Float64 vector.
func (v *Vector) Float64s() []float64 { return v.flts }

// Strings returns the values of a String vector: the backing slice of a
// plain one, and for a coded one a new slice built on every call. A coded
// vector keeps no copy, because decoded batches are shared read-only, so
// a reader of single rows calls StringAt instead.
func (v *Vector) Strings() []string {
	if v.dict == nil {
		return v.strs
	}
	out := make([]string, len(v.codes))
	for i, c := range v.codes {
		out[i] = v.dict[c]
	}
	return out
}

// StringAt returns value i of a String vector without allocating.
func (v *Vector) StringAt(i int) string {
	if v.dict != nil {
		return v.dict[v.codes[i]]
	}
	return v.strs[i]
}

// Codes returns the codes of a dictionary-coded String vector, and nil
// for any other vector.
func (v *Vector) Codes() []int32 { return v.codes }

// Dict returns the dictionary a coded vector's codes index, and nil for
// any other vector. It is shared and read-only; its identity — the same
// first entry at the same length — names one decoded dictionary.
func (v *Vector) Dict() []string { return v.dict }

// toPlain turns a coded vector into a plain one, before an append.
func (v *Vector) toPlain() {
	if v.dict != nil {
		v.strs, v.codes, v.dict = v.Strings(), nil, nil
	}
}

// Bools returns the backing slice of a Bool vector.
func (v *Vector) Bools() []bool { return v.bools }

// AppendInt64 appends one int64 value.
func (v *Vector) AppendInt64(x int64) { v.ints = append(v.ints, x) }

// AppendFloat64 appends one float64 value.
func (v *Vector) AppendFloat64(x float64) { v.flts = append(v.flts, x) }

// AppendString appends one string value.
func (v *Vector) AppendString(x string) {
	v.toPlain()
	v.strs = append(v.strs, x)
}

// AppendBool appends one bool value.
func (v *Vector) AppendBool(x bool) { v.bools = append(v.bools, x) }

// AppendNull appends a NULL: the type's zero value plus a null bit.
func (v *Vector) AppendNull() {
	idx := v.Len()
	switch v.typ {
	case Int64:
		v.ints = append(v.ints, 0)
	case Float64:
		v.flts = append(v.flts, 0)
	case String:
		v.toPlain()
		v.strs = append(v.strs, "")
	case Bool:
		v.bools = append(v.bools, false)
	}
	v.ensureNulls(idx + 1)
	v.nulls.Set(idx)
}

// AppendValue appends a dynamically typed value; the value's type must
// match the vector's.
func (v *Vector) AppendValue(val Value) {
	if val.Type != v.typ {
		panic(fmt.Sprintf("columnar: appending %v value to %v vector", val.Type, v.typ))
	}
	if val.Null {
		v.AppendNull()
		return
	}
	switch v.typ {
	case Int64:
		v.AppendInt64(val.I)
	case Float64:
		v.AppendFloat64(val.F)
	case String:
		v.AppendString(val.S)
	case Bool:
		v.AppendBool(val.B)
	}
}

// ensureNulls makes sure the null bitmap exists and covers at least n bits.
func (v *Vector) ensureNulls(n int) {
	if v.nulls == nil {
		v.nulls = NewBitmap(n)
		return
	}
	if v.nulls.Len() < n {
		v.nulls.grow(n)
	}
}

// SetNulls makes NULL exactly the rows whose bit is set in nulls, which
// has at most Len bits, and gives them the type's zero value, as
// AppendNull does. The vector takes the bitmap over, cut back to its last
// set bit (dropped altogether when it has none): a vector's null bitmap
// ends at its last NULL row however the vector was built, so ByteSize
// does not depend on whether it was appended to, decoded or filtered.
func (v *Vector) SetNulls(nulls *Bitmap) {
	v.nulls = nulls.cutAtLastSet()
	if v.nulls == nil {
		return
	}
	var empty int32
	if v.dict != nil {
		empty = v.emptyCode()
	}
	for wi, w := range nulls.words {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			switch v.typ {
			case Int64:
				v.ints[i] = 0
			case Float64:
				v.flts[i] = 0
			case String:
				if v.dict != nil {
					v.codes[i] = empty
				} else {
					v.strs[i] = ""
				}
			case Bool:
				v.bools[i] = false
			}
		}
	}
}

// emptyCode is the code of "" in a coded vector's dictionary, the value
// SetNulls gives a NULL row. A column written from a vector has "" in its
// dictionary whenever it has a NULL; any other dictionary is extended by a
// copy, never in place, since it is shared.
func (v *Vector) emptyCode() int32 {
	if c := slices.Index(v.dict, ""); c >= 0 {
		return int32(c)
	}
	v.dict = append(v.dict[:len(v.dict):len(v.dict)], "")
	return int32(len(v.dict) - 1)
}

// IsNull reports whether value i is NULL.
func (v *Vector) IsNull(i int) bool {
	return v.nulls != nil && i < v.nulls.Len() && v.nulls.Get(i)
}

// Nulls returns the vector's null bitmap, or nil when no value was ever
// NULL. It is read-only and may be shorter than Len (the bits it lacks
// are not NULL): what a writer that packs NULLs a word at a time reads
// instead of calling IsNull per row.
func (v *Vector) Nulls() *Bitmap { return v.nulls }

// HasNulls reports whether any value is NULL.
func (v *Vector) HasNulls() bool {
	return v.nulls != nil && v.nulls.Count() > 0
}

// NullCount reports how many values are NULL.
func (v *Vector) NullCount() int {
	if v.nulls == nil {
		return 0
	}
	return v.nulls.Count()
}

// Value returns value i as a dynamically typed Value.
func (v *Vector) Value(i int) Value {
	if v.IsNull(i) {
		return NullValue(v.typ)
	}
	switch v.typ {
	case Int64:
		return IntValue(v.ints[i])
	case Float64:
		return FloatValue(v.flts[i])
	case String:
		return StringValue(v.StringAt(i))
	case Bool:
		return BoolValue(v.bools[i])
	}
	panic("columnar: unknown vector type")
}

// Gather returns a new vector containing the values at the given row
// indices, in order. Null bits are carried over. No engine path calls it
// (see Batch.Filter); it stays as the plain per-row reference the property
// tests compare Filter and encoding's gather-decode against.
func (v *Vector) Gather(indices []int) *Vector {
	out := NewVector(v.typ, len(indices))
	for _, i := range indices {
		if v.IsNull(i) {
			out.AppendNull()
			continue
		}
		switch v.typ {
		case Int64:
			out.AppendInt64(v.ints[i])
		case Float64:
			out.AppendFloat64(v.flts[i])
		case String:
			out.AppendString(v.StringAt(i))
		case Bool:
			out.AppendBool(v.bools[i])
		}
	}
	return out
}

// filter returns a new vector holding the rows whose bit is set in sel,
// which has one bit per row and count set bits (Batch.Filter counts once
// for all its columns): Gather(sel.Indices(nil)) value for value and null
// bit for null bit, without the index slice.
func (v *Vector) filter(sel *Bitmap, count int) *Vector {
	out := &Vector{typ: v.typ}
	switch v.typ {
	case Int64:
		out.ints = selectValues(v.ints, sel.words, count)
	case Float64:
		out.flts = selectValues(v.flts, sel.words, count)
	case String:
		if v.dict != nil {
			out.codes, out.dict = selectValues(v.codes, sel.words, count), v.dict
		} else {
			out.strs = selectValues(v.strs, sel.words, count)
		}
	case Bool:
		out.bools = selectValues(v.bools, sel.words, count)
	}
	if v.nulls != nil {
		out.SetNulls(v.nulls.Select(sel))
	}
	return out
}

// selectValues copies the values of src whose bit is set in sel into a
// new slice of count values, count being the number of set bits. It is
// the one loop shape every "keep the selected rows" site uses, here and
// in encoding's gather-decode: a full word of sel is one sequential
// 64-value copy, any other word gives up its set bits lowest first
// (TrailingZeros64, then w &= w-1), and values are stored by index into
// the pre-sized output — no closure, no append, no index slice. Because a
// full word is the sequential case, a dense selection costs what a plain
// copy does and nothing has to choose between the two.
func selectValues[T any](src []T, sel []uint64, count int) []T {
	dst := make([]T, count)
	k := 0
	for wi, w := range sel {
		base := wi << 6
		if w == ^uint64(0) {
			copy(dst[k:k+64], src[base:base+64])
			k += 64
			continue
		}
		for ; w != 0; w &= w - 1 {
			dst[k] = src[base+bits.TrailingZeros64(w)]
			k++
		}
	}
	return dst
}

// Slice returns a view of rows [from, to). The backing storage is shared;
// the null bitmap, if present, is copied restricted to the range and, as
// everywhere, cut back to its last NULL.
func (v *Vector) Slice(from, to int) *Vector {
	out := &Vector{typ: v.typ}
	switch v.typ {
	case Int64:
		out.ints = v.ints[from:to:to]
	case Float64:
		out.flts = v.flts[from:to:to]
	case String:
		if v.dict != nil {
			out.codes, out.dict = v.codes[from:to:to], v.dict
		} else {
			out.strs = v.strs[from:to:to]
		}
	case Bool:
		out.bools = v.bools[from:to:to]
	}
	if v.nulls != nil {
		nulls := NewBitmap(to - from)
		for i := from; i < to; i++ {
			if i < v.nulls.Len() && v.nulls.Get(i) {
				nulls.Set(i - from)
			}
		}
		out.nulls = nulls.cutAtLastSet()
	}
	return out
}

// ByteSize estimates the in-memory footprint of the vector's values in
// bytes. Strings are charged their length plus a 16-byte header, matching
// what would move over a wire in a simple serialization. A coded vector is
// charged as the plain vector of its strings, byte for byte — an entry's
// length once per row that names it — so a meter charges the same bytes
// whichever form a batch is in.
func (v *Vector) ByteSize() int64 {
	var n int64
	switch v.typ {
	case Int64:
		n = int64(len(v.ints)) * 8
	case Float64:
		n = int64(len(v.flts)) * 8
	case Bool:
		n = int64(len(v.bools))
	case String:
		rows := v.Len()
		n = int64(rows)*16 + v.stringBytes(0, rows)
	}
	if v.nulls != nil {
		n += int64(v.nulls.ByteSize())
	}
	return n
}

// selectedByteSize is filter(sel, count).ByteSize() without the copy:
// fixed-width values are count times their width, strings are walked a
// word of sel at a time as selectValues walks them, and the null bitmap
// is what SetNulls would keep of the selected null bits, which ends at
// the rank of the last selected NULL.
func (v *Vector) selectedByteSize(sel *Bitmap, count int) int64 {
	var n int64
	switch v.typ {
	case Int64, Float64:
		n = int64(count) * 8
	case Bool:
		n = int64(count)
	case String:
		n = int64(count) * 16
		for wi, w := range sel.words {
			base := wi << 6
			if w == ^uint64(0) {
				n += v.stringBytes(base, base+64)
				continue
			}
			for ; w != 0; w &= w - 1 {
				n += int64(len(v.StringAt(base + bits.TrailingZeros64(w))))
			}
		}
	}
	if v.nulls != nil {
		if last := v.nulls.lastSelected(sel); last >= 0 {
			n += int64(last>>6+1) * 8
		}
	}
	return n
}

// stringBytes sums the lengths of rows [from, to) of a String vector.
func (v *Vector) stringBytes(from, to int) int64 {
	var n int64
	if v.dict != nil {
		for _, c := range v.codes[from:to] {
			n += int64(len(v.dict[c]))
		}
		return n
	}
	for _, s := range v.strs[from:to] {
		n += int64(len(s))
	}
	return n
}
