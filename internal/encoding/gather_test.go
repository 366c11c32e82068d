package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/columnar"
)

// The gather-decode kernels take selected rows out a bitmap word at a
// time, and Decode is them under a selection of every row. These tests
// pin them — value for value, null bit for null bit and in ByteSize — to
// the ground truth, the vector the column was encoded from gathered at
// the selected rows (Gather(Indices)), over every codec the encoder can
// pick, NULL densities, selection shapes and the row counts around a word
// boundary; a corruption table and a fuzz target check that a damaged
// column is ErrCorrupt, never a panic.

var gatherRows = []int{0, 1, 63, 64, 65, 1000, 65536}

// gatherColumn is one type × codec of the matrix: build returns n rows
// of which every nullEvery-th is NULL (0: none, 1: all), and the column
// they encode to.
type gatherColumn struct {
	name  string
	build func(rng *rand.Rand, n, nullEvery int) (*columnar.Vector, *EncodedColumn)
}

// nullable builds an n-row vector from next, NULL at every nullEvery-th
// row.
func nullable(typ columnar.Type, n, nullEvery int, next func(i int) columnar.Value) *columnar.Vector {
	v := columnar.NewVector(typ, n)
	for i := 0; i < n; i++ {
		if nullEvery > 0 && i%nullEvery == 0 {
			v.AppendNull()
		} else {
			v.AppendValue(next(i))
		}
	}
	return v
}

// forced re-encodes ec's payload with a codec the encoder did not pick.
func forced(ec *EncodedColumn, enc ColumnEncoding, data []byte) *EncodedColumn {
	ec.Encoding, ec.Data = enc, data
	ec.Checksum = ec.ComputeChecksum()
	return ec
}

func gatherColumns() []gatherColumn {
	ints := func(rng *rand.Rand, n, nullEvery int) *columnar.Vector {
		return nullable(columnar.Int64, n, nullEvery, func(i int) columnar.Value {
			return columnar.IntValue(int64(i/40)*3 + rng.Int63n(2)) // runs, small deltas, a narrow domain
		})
	}
	cols := []gatherColumn{
		{"float/PLAIN", func(rng *rand.Rand, n, nullEvery int) (*columnar.Vector, *EncodedColumn) {
			v := nullable(columnar.Float64, n, nullEvery, func(int) columnar.Value {
				return columnar.FloatValue(rng.NormFloat64())
			})
			return v, EncodeColumn(v)
		}},
		{"bool/PLAIN", func(rng *rand.Rand, n, nullEvery int) (*columnar.Vector, *EncodedColumn) {
			v := nullable(columnar.Bool, n, nullEvery, func(int) columnar.Value {
				return columnar.BoolValue(rng.Intn(3) == 0)
			})
			return v, EncodeColumn(v)
		}},
		{"string/DICT", func(rng *rand.Rand, n, nullEvery int) (*columnar.Vector, *EncodedColumn) {
			v := nullable(columnar.String, n, nullEvery, func(int) columnar.Value {
				return columnar.StringValue(fmt.Sprintf("entry-%d", rng.Intn(37)))
			})
			return v, forced(EncodeColumn(v), Dict, stringBlock(Dict, v.Strings()))
		}},
		{"string/PLAIN", func(rng *rand.Rand, n, nullEvery int) (*columnar.Vector, *EncodedColumn) {
			v := nullable(columnar.String, n, nullEvery, func(i int) columnar.Value {
				return columnar.StringValue(fmt.Sprintf("%d-%s", i, "xxxxx"[:rng.Intn(6)]))
			})
			return v, forced(EncodeColumn(v), Plain, stringBlock(Plain, v.Strings()))
		}},
	}
	for _, enc := range []ColumnEncoding{RLE, DeltaVarint, BitPacked} {
		cols = append(cols, gatherColumn{"int/" + enc.String(), func(rng *rand.Rand, n, nullEvery int) (*columnar.Vector, *EncodedColumn) {
			v := ints(rng, n, nullEvery)
			return v, forced(EncodeColumn(v), enc, intBlock(enc, v.Int64s()))
		}})
	}
	return cols
}

// selection is one shape of the matrix over n rows.
type selection struct {
	name string
	bits *columnar.Bitmap
}

func selections(rng *rand.Rand, n int) []selection {
	shape := func(name string, keep func(i int) bool) selection {
		bm := columnar.NewBitmap(n)
		for i := 0; i < n; i++ {
			if keep(i) {
				bm.Set(i)
			}
		}
		return selection{name, bm}
	}
	one := rng.Intn(max(n, 1))
	out := []selection{
		shape("empty", func(int) bool { return false }),
		shape("full", func(int) bool { return true }),
		shape("one bit", func(i int) bool { return i == one }),
		shape("alternating", func(i int) bool { return i%2 == 1 }),
	}
	for _, p := range []float64{0.01, 0.5, 0.99} {
		out = append(out, shape(fmt.Sprintf("random %.2f", p), func(int) bool { return rng.Float64() < p }))
	}
	for _, run := range []int{63, 64, 65} {
		// Runs of run rows, a clear row between them, the first starting at
		// row 1: over 65 runs they cross a word boundary at every offset.
		out = append(out, shape(fmt.Sprintf("runs of %d", run), func(i int) bool { return i > 0 && (i-1)%(run+1) < run }))
	}
	return out
}

// sameVector fails unless got is want value for value, null bit for null
// bit and in ByteSize.
func sameVector(t *testing.T, what string, got, want *columnar.Vector) {
	t.Helper()
	if got.Type() != want.Type() || got.Len() != want.Len() {
		t.Fatalf("%s: %v × %d, want %v × %d", what, got.Type(), got.Len(), want.Type(), want.Len())
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) } // a NaN equals itself
	if !slices.Equal(got.Int64s(), want.Int64s()) || !slices.EqualFunc(got.Float64s(), want.Float64s(), sameBits) ||
		!slices.Equal(got.Strings(), want.Strings()) || !slices.Equal(got.Bools(), want.Bools()) {
		t.Fatalf("%s: values differ", what)
	}
	for i := 0; i < want.Len(); i++ {
		if got.IsNull(i) != want.IsNull(i) {
			t.Fatalf("%s: row %d null = %v, want %v", what, i, got.IsNull(i), want.IsNull(i))
		}
	}
	if got.HasNulls() != want.HasNulls() || got.ByteSize() != want.ByteSize() {
		t.Fatalf("%s: HasNulls/ByteSize %v/%d, want %v/%d", what, got.HasNulls(), got.ByteSize(), want.HasNulls(), want.ByteSize())
	}
}

func TestDecodeFilteredMatchesInputGather(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, col := range gatherColumns() {
		for _, nullEvery := range []int{0, 11, 1} {
			for _, n := range gatherRows {
				in, ec := col.build(rng, n, nullEvery)
				if got, want := ec.DecodedSize(), in.ByteSize(); got != want {
					t.Fatalf("%s nullEvery=%d n=%d: DecodedSize %d, the input's ByteSize %d", col.name, nullEvery, n, got, want)
				}
				for _, sel := range selections(rng, n) {
					what := fmt.Sprintf("%s nullEvery=%d n=%d %s", col.name, nullEvery, n, sel.name)
					got, err := ec.DecodeFiltered(sel.bits)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					sameVector(t, what, got, in.Gather(sel.bits.Indices(nil)))
				}
			}
		}
	}
}

// Decode attaches the parsed null bitmap instead of re-appending every
// value, and the result is still what appending builds — the input
// vector: zero values under the NULLs and a bitmap that ends at the last
// one.
func TestDecodeWithNullsMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, col := range gatherColumns() {
		for _, n := range []int{1, 64, 65, 1000} {
			in, ec := col.build(rng, n, 7) // last NULL well before the last row
			got, err := ec.Decode()
			if err != nil {
				t.Fatalf("%s: %v", col.name, err)
			}
			sameVector(t, fmt.Sprintf("%s n=%d", col.name, n), got, in)
		}
	}
}

// damaged is one way a column goes bad; every one of them must come back
// from DecodeFiltered as ErrCorrupt under every selection, a clear one
// included where the check does not depend on what is selected.
type damaged struct {
	name string
	ec   *EncodedColumn
	sels []*columnar.Bitmap
}

func damagedColumns() []damaged {
	const n = 200
	rng := rand.New(rand.NewSource(25))
	all, last, none := columnar.NewBitmap(n), columnar.NewBitmap(n), columnar.NewBitmap(n)
	all.Fill(0, n)
	last.Set(n - 1)
	var out []damaged
	for _, col := range gatherColumns() {
		_, clean := col.build(rng, n, 11)
		remade := func(data []byte) *EncodedColumn {
			ec := *clean
			return forced(&ec, clean.Encoding, data)
		}
		out = append(out,
			// The last row's bytes are gone: every codec needs them under a
			// selection that keeps the last row, the stream codecs and the
			// length checks under any.
			damaged{col.name + " truncated payload", remade(clean.Data[:len(clean.Data)-1]), []*columnar.Bitmap{all, last}},
			damaged{col.name + " empty payload", remade(nil), []*columnar.Bitmap{all, last, none}},
		)
		_, longer := col.build(rng, n+1, 11)
		short := remade(longer.Data)
		short.Nulls = clean.Nulls
		out = append(out, damaged{col.name + " count != header", short, []*columnar.Bitmap{all, last, none}})
		crc := *clean
		crc.Checksum ^= 1
		out = append(out, damaged{col.name + " flipped CRC", &crc, []*columnar.Bitmap{all, last, none}})
		nulls := *clean
		nulls.Nulls = longer.Nulls
		nulls.Checksum = nulls.ComputeChecksum() // reach the length check, not the CRC
		out = append(out, damaged{col.name + " null bitmap of another length", &nulls, []*columnar.Bitmap{all, last, none}})
	}
	// A dictionary code past the table, on a selected row. The codes of 200
	// rows over 3 entries are packed two bits wide, so code 3 fits and
	// names nothing.
	strs := make([]string, n)
	for i := range strs {
		strs[i] = []string{"a", "b", "c"}[i%3]
	}
	dict := forced(EncodeColumn(columnar.FromStrings(strs)), Dict, stringBlock(Dict, strs))
	bad := append([]byte(nil), dict.Data...)
	bad[len(bad)-1] |= 0xc0 // the last row's two bits
	out = append(out, damaged{"string/DICT code out of range", forced(dict, Dict, bad), []*columnar.Bitmap{all, last}})
	// Two payloads no writer produces, each with all the bytes its header
	// asks for: a bit width between 56 and 64, which cannot be streamed
	// through a 64-bit load and is not byte-aligned, and an RLE run that
	// reaches past the row count.
	ints := func(enc ColumnEncoding, data []byte) *EncodedColumn {
		return forced(EncodeColumn(columnar.FromInt64s(make([]int64, n))), enc, data)
	}
	for width := 57; width < 64; width++ {
		data := append(binary.AppendUvarint(nil, n), 0, byte(width)) // count, frame 0, width
		data = append(data, make([]byte, n*8)...)
		out = append(out, damaged{fmt.Sprintf("int/BITPACK bit width %d", width), ints(BitPacked, data), []*columnar.Bitmap{all, last, none}})
	}
	overflow := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, n), zigzag(5)), n+1)
	out = append(out, damaged{"int/RLE run overflows count", ints(RLE, overflow), []*columnar.Bitmap{all, last, none}})
	return out
}

// Every damaged column is ErrCorrupt from DecodeFiltered under each of its
// selections, and from Decode, the full selection: among them every
// malformed payload a codec's reader rejects — a truncated stream (for
// PLAIN, a truncated string), a value count that is not the header's, a
// bit width of 57–63, an RLE run past the count and a dictionary code
// past the table.
func TestDecodeFilteredCorruption(t *testing.T) {
	for _, d := range damagedColumns() {
		for _, sel := range d.sels {
			v, err := d.ec.DecodeFiltered(sel)
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, %d of %d rows selected: got %v, %v, want ErrCorrupt", d.name, sel.Count(), sel.Len(), v, err)
			}
		}
		if v, err := d.ec.Decode(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode returned %v, %v, want ErrCorrupt", d.name, v, err)
		}
	}
}

// FuzzDecodeFiltered feeds the kernels marshalled columns, the damaged
// ones above as seeds, with the CRC recomputed so that the bytes reach
// them: whatever the payload, the answer is a vector of the selected
// length — the reference's, when the column also decodes in full — or
// ErrCorrupt.
func FuzzDecodeFiltered(f *testing.F) {
	for _, d := range damagedColumns() {
		f.Add(d.ec.Marshal(), []byte{0xff})
		f.Add(d.ec.Marshal(), []byte{0x01, 0x00, 0xa5})
	}
	f.Fuzz(func(t *testing.T, blob, pattern []byte) {
		ec, _, err := UnmarshalColumn(blob)
		if err != nil || ec.Stats.NumValues < 0 || ec.Stats.NumValues > 1<<16 || len(pattern) == 0 {
			return
		}
		ec.Checksum = ec.ComputeChecksum()
		sel := columnar.NewBitmap(ec.Stats.NumValues)
		for i := 0; i < sel.Len(); i++ {
			if pattern[i>>3%len(pattern)]>>(uint(i)&7)&1 != 0 {
				sel.Set(i)
			}
		}
		got, err := ec.DecodeFiltered(sel)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeFiltered: %v, want ErrCorrupt", err)
			}
			return
		}
		if got.Len() != sel.Count() {
			t.Fatalf("decoded %d rows, selected %d", got.Len(), sel.Count())
		}
		if full, err := ec.Decode(); err == nil {
			sameVector(t, "fuzzed column", got, full.Gather(sel.Indices(nil)))
		}
	})
}

// BenchmarkDecodeNulls is CI's gate on the NULL path: a full decode of
// 65,536 BIGINT rows allocates the same handful of objects with every
// tenth row NULL as with none (it was 17,513 allocations and 900 times
// the time when the null bitmap was rebuilt a bit at a time).
func BenchmarkDecodeNulls(b *testing.B) {
	for _, nullEvery := range []int{0, 10} {
		rng := rand.New(rand.NewSource(26))
		ec := EncodeColumn(intVectorWithNulls(rng, 65536, 1<<20, nullEvery))
		b.Run(fmt.Sprintf("nullEvery=%d", nullEvery), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ec.Decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
