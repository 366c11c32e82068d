package encoding

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/columnar"
)

// EncodeColumn sizes every candidate in one pass and writes only the
// winner. These tests pin it to the code it replaced, which wrote every
// candidate and kept the smallest: same Encoding, same bytes, same zone
// map, and every size function equal to the length of its writer's
// output.

// candidate is one codec's output for a column.
type candidate struct {
	enc  ColumnEncoding
	data []byte
}

// referenceEncodeColumn is EncodeColumn as it was before it sized its
// candidates: write each one (returned too, in tie order), keep the
// smallest (a later candidate wins only when strictly smaller), take the
// zone map row by row and the null section from an n-entry []bool.
func referenceEncodeColumn(v *columnar.Vector) (*EncodedColumn, []candidate) {
	ec := &EncodedColumn{Type: v.Type()}
	ec.Stats.NumValues = v.Len()
	ec.Stats.NullCount = v.NullCount()
	if v.HasNulls() {
		nulls := make([]bool, v.Len())
		for i := range nulls {
			nulls[i] = v.IsNull(i)
		}
		ec.Nulls = EncodeBools(nulls)
	}
	var candidates []candidate
	switch v.Type() {
	case columnar.Int64:
		vals := v.Int64s()
		ec.Stats.MinI, ec.Stats.MaxI, ec.Stats.HasMinMax = referenceMinMax(v, vals)
		candidates = []candidate{
			{RLE, intBlock(RLE, vals)},
			{DeltaVarint, intBlock(DeltaVarint, vals)},
			{BitPacked, intBlock(BitPacked, vals)},
		}
	case columnar.Float64:
		ec.Stats.MinF, ec.Stats.MaxF, ec.Stats.HasMinMax = referenceMinMax(v, v.Float64s())
		candidates = []candidate{{Plain, EncodeFloat64s(v.Float64s())}}
	case columnar.String:
		ec.Stats.MinS, ec.Stats.MaxS, ec.Stats.HasMinMax = referenceMinMax(v, v.Strings())
		candidates = []candidate{{Dict, stringBlock(Dict, v.Strings())}, {Plain, stringBlock(Plain, v.Strings())}}
	case columnar.Bool:
		candidates = []candidate{{Plain, EncodeBools(v.Bools())}}
	}
	best := candidates[0]
	for _, c := range candidates[1:] {
		if len(c.data) < len(best.data) {
			best = c
		}
	}
	ec.Encoding, ec.Data = best.enc, best.data
	return ec, candidates
}

// EncodeFloat64s stores floats as little-endian IEEE 754 bits.
func EncodeFloat64s(vals []float64) []byte {
	return appendFloat64s(make([]byte, 0, float64sSize(len(vals))), vals)
}

// EncodeBools packs booleans into a bitmap.
func EncodeBools(vals []bool) []byte {
	return appendBools(make([]byte, 0, boolsSize(len(vals))), vals)
}

// referenceMinMax is the row-by-row zone map over v's non-NULL rows.
func referenceMinMax[T int64 | float64 | string](v *columnar.Vector, vals []T) (lo, hi T, ok bool) {
	for i, x := range vals {
		if v.IsNull(i) {
			continue
		}
		if !ok {
			lo, hi, ok = x, x, true
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, ok
}

// encodeDomains are the value ranges of the matrix; 0 is the full int64
// range, negatives included (BITPACK's byte-aligned width 64).
var encodeDomains = []struct {
	name string
	size int64
}{{"constant", 1}, {"3", 3}, {"50", 50}, {"2526", 2526}, {"1<<20", 1 << 20}, {"int64", 0}}

// domainValues draws n values of one domain in one shape: random,
// sorted, or runs of 1–100 equal values.
func domainValues(rng *rand.Rand, n int, domain int64, shape string) []int64 {
	draw := func() int64 {
		if domain == 0 {
			return int64(rng.Uint64())
		}
		return 42 + rng.Int63n(domain)
	}
	vals := make([]int64, n)
	for i := 0; i < n; {
		x, run := draw(), 1
		if shape == "runs" {
			run = 1 + rng.Intn(100)
		}
		for ; run > 0 && i < n; run-- {
			vals[i] = x
			i++
		}
	}
	if shape == "sorted" {
		slices.Sort(vals)
	}
	return vals
}

// typedColumns turns drawn values into one vector per type, no NULLs.
func typedColumns(vals []int64) map[columnar.Type]*columnar.Vector {
	floats, strs, bools := make([]float64, len(vals)), make([]string, len(vals)), make([]bool, len(vals))
	for i, x := range vals {
		floats[i], strs[i], bools[i] = float64(x)/4, "v"+strconv.FormatInt(x, 36), x&1 == 1
	}
	return map[columnar.Type]*columnar.Vector{
		columnar.Int64:   columnar.FromInt64s(vals),
		columnar.Float64: columnar.FromFloat64s(floats),
		columnar.String:  columnar.FromStrings(strs),
		columnar.Bool:    columnar.FromBools(bools),
	}
}

// withNulls copies v with every nullEvery-th row NULL (0: none, 1: all).
func withNulls(v *columnar.Vector, nullEvery int) *columnar.Vector {
	var out *columnar.Vector // SetNulls zeroes the NULL rows: copy the values first
	switch v.Type() {
	case columnar.Int64:
		out = columnar.FromInt64s(slices.Clone(v.Int64s()))
	case columnar.Float64:
		out = columnar.FromFloat64s(slices.Clone(v.Float64s()))
	case columnar.String:
		out = columnar.FromStrings(slices.Clone(v.Strings()))
	case columnar.Bool:
		out = columnar.FromBools(slices.Clone(v.Bools()))
	}
	if nullEvery > 0 {
		nulls := columnar.NewBitmap(v.Len())
		for i := 0; i < v.Len(); i += nullEvery {
			nulls.Set(i)
		}
		out.SetNulls(nulls)
	}
	return out
}

func TestEncodeColumnPicksSmallestCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	chosen := map[string]bool{}
	for _, dom := range encodeDomains {
		for _, shape := range []string{"random", "sorted", "runs"} {
			for _, n := range gatherRows {
				cols := typedColumns(domainValues(rng, n, dom.size, shape))
				for _, typ := range []columnar.Type{columnar.Int64, columnar.Float64, columnar.String, columnar.Bool} {
					for _, nullEvery := range []int{0, 11, 1} {
						name := fmt.Sprintf("%v/%s/%s/null%d/%d", typ, dom.name, shape, nullEvery, n)
						v := withNulls(cols[typ], nullEvery)
						got := EncodeColumn(v)
						want, candidates := referenceEncodeColumn(v)
						if got.Encoding != want.Encoding || !bytes.Equal(got.Data, want.Data) {
							t.Fatalf("%s: chose %v (%d bytes), the smallest candidate is %v (%d bytes)",
								name, got.Encoding, len(got.Data), want.Encoding, len(want.Data))
						}
						if !bytes.Equal(got.Nulls, want.Nulls) {
							t.Fatalf("%s: null section %x, EncodeBools gives %x", name, got.Nulls, want.Nulls)
						}
						if got.Stats != want.Stats {
							t.Fatalf("%s: zone map %+v, row by row %+v", name, got.Stats, want.Stats)
						}
						if cap(got.Data) != len(got.Data) || cap(got.Nulls) != len(got.Nulls) {
							t.Fatalf("%s: Data %d/%d and Nulls %d/%d (len/cap): not presized exactly",
								name, len(got.Data), cap(got.Data), len(got.Nulls), cap(got.Nulls))
						}
						checkSizeFunctions(t, name, v, candidates)
						if w, _ := SizeColumn(v); w.Len() != len(w.AppendTo(nil)) || w.Len() != got.MaxMarshalSize() || !bytes.Equal(w.AppendTo(nil), got.Marshal()) {
							t.Fatalf("%s: the writer sizes %d bytes and appends %d; Marshal of its column is %d, sized %d",
								name, w.Len(), len(w.AppendTo(nil)), len(got.Marshal()), got.MaxMarshalSize())
						}
						chosen[typ.String()+"/"+got.Encoding.String()] = true
					}
				}
			}
		}
	}
	// The matrix must reach every codec the encoder can pick, or a wrong
	// tie order could hide behind a candidate that never wins.
	for _, c := range []string{"BIGINT/RLE", "BIGINT/DELTA", "BIGINT/BITPACK", "VARCHAR/DICT", "VARCHAR/PLAIN", "DOUBLE/PLAIN", "BOOLEAN/PLAIN"} {
		if !chosen[c] {
			t.Errorf("no input of the matrix chose %s (chose %v)", c, chosen)
		}
	}
}

// checkSizeFunctions asserts each codec's size function equals len of its
// writer's output for v's values, candidates being those outputs in
// referenceEncodeColumn's order.
func checkSizeFunctions(t *testing.T, name string, v *columnar.Vector, candidates []candidate) {
	t.Helper()
	var sizes []int
	switch n := v.Len(); v.Type() {
	case columnar.Int64:
		sz := sizeInt64s(v.Int64s())
		sizes = []int{sz.rle, sz.delta, sz.bitPacked}
		if n > 0 && (sz.min != slices.Min(v.Int64s()) || sz.max != slices.Max(v.Int64s())) {
			t.Fatalf("%s: one pass found frame [%d, %d]", name, sz.min, sz.max)
		}
	case columnar.Float64:
		sizes = []int{float64sSize(n)}
	case columnar.String:
		d := buildDict(v.Strings())
		sizes = []int{d.size(), d.plainSize}
	case columnar.Bool:
		sizes = []int{boolsSize(n)}
	}
	for i, c := range candidates {
		if sizes[i] != len(c.data) {
			t.Fatalf("%s: %v size function says %d, the writer wrote %d", name, c.enc, sizes[i], len(c.data))
		}
	}
}

// The null section is written from the vector's bitmap words, which may
// end at the last NULL row or run to the vector's end; either way it is
// byte for byte the EncodeBools block of the n-entry []bool, at row
// counts that are not multiples of 8 or 64.
func TestNullSectionIsEncodeBoolsOfTheBitmap(t *testing.T) {
	rows := []int{1, 2, 7, 9, 15, 17, 63, 65, 71, 127, 129, 1001, 4097}
	patterns := map[string]func(i, n int) bool{
		"all":      func(int, int) bool { return true },
		"first":    func(i, _ int) bool { return i == 0 },
		"last":     func(i, n int) bool { return i == n-1 },
		"every 3":  func(i, _ int) bool { return i%3 == 0 },
		"every 64": func(i, _ int) bool { return i%64 == 63 },
		"but last": func(i, n int) bool { return i < n-1 },
	}
	for _, n := range rows {
		for name, isNull := range patterns {
			want := make([]bool, n)
			appended := columnar.NewVector(columnar.Int64, n)
			wide := columnar.NewVector(columnar.Int64, n+70) // sliced below: a bitmap exactly n long
			wide.AppendNull()
			for i := 0; i < n; i++ {
				want[i] = isNull(i, n)
				if want[i] {
					appended.AppendNull()
					wide.AppendNull()
				} else {
					appended.AppendInt64(int64(i))
					wide.AppendInt64(int64(i))
				}
			}
			for k := 0; k < 69; k++ {
				wide.AppendNull()
			}
			for vname, v := range map[string]*columnar.Vector{"appended": appended, "sliced": wide.Slice(1, n+1)} {
				if v.NullCount() == 0 {
					continue
				}
				if got := EncodeColumn(v).Nulls; !bytes.Equal(got, EncodeBools(want)) {
					t.Fatalf("%d rows, NULL %s, %s: null section %x, EncodeBools gives %x", n, name, vname, got, EncodeBools(want))
				}
			}
		}
	}
}

// pinnedColumn is an input and the codec it must be written in; width is
// BITPACK's (-1: not BITPACK), so an input cannot drift to another codec
// or width unnoticed.
type pinnedColumn struct {
	name  string
	v     *columnar.Vector
	enc   ColumnEncoding
	width int
}

// pinnedColumns are one input for every codec the encoder can pick,
// BITPACK at the widths with their own write paths (0: the frame alone,
// 64: byte-aligned words), each with and without NULLs, and every type
// at 0 rows.
func pinnedColumns() []pinnedColumn {
	rng := rand.New(rand.NewSource(49))
	const n = 1000
	ints := func(f func(i int) int64) *columnar.Vector {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = f(i)
		}
		return columnar.FromInt64s(vals)
	}
	floats, dict, plain, bools := make([]float64, n), make([]string, n), make([]string, n), make([]bool, n)
	for i := 0; i < n; i++ {
		floats[i] = rng.NormFloat64() * 1e3
		dict[i] = []string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"}[rng.Intn(5)]
		plain[i] = fmt.Sprintf("comment %d %x", i, rng.Uint64())
		bools[i] = rng.Intn(3) == 0
	}
	base := []pinnedColumn{
		{"RLE", ints(func(i int) int64 { return 1e12 + int64(i/100) }), RLE, -1},
		{"DELTA", ints(func(i int) int64 { return int64(i)*1000 + int64(i%7) }), DeltaVarint, -1},
		{"BITPACK/6", ints(func(int) int64 { return rng.Int63n(50) }), BitPacked, 6},
		{"BITPACK/0", ints(func(int) int64 { return 0 }), BitPacked, 0},
		{"BITPACK/64", ints(func(int) int64 { return int64(rng.Uint64()) }), BitPacked, 64},
		{"DOUBLE", columnar.FromFloat64s(floats), Plain, -1},
		{"DICT", columnar.FromStrings(dict), Dict, -1},
		{"VARCHAR", columnar.FromStrings(plain), Plain, -1},
		{"BOOL", columnar.FromBools(bools), Plain, -1},
	}
	var out []pinnedColumn
	for _, p := range base {
		out = append(out, p)
		out = append(out, pinnedColumn{p.name + "/NULL", withNulls(p.v, 7), p.enc, p.width})
	}
	for typ, enc := range map[columnar.Type]ColumnEncoding{columnar.Int64: RLE, columnar.Float64: Plain, columnar.String: Plain, columnar.Bool: Plain} {
		out = append(out, pinnedColumn{typ.String() + "/0 rows", columnar.NewVector(typ, 0), enc, -1})
	}
	return out
}

// The column block every codec writes, pinned by its SHA-256: a change
// to how a column is sized or written must leave the bytes alone. The
// hashes are of EncodeColumn(v).Marshal() taken when the encoder wrote
// Data into a buffer of its own and Marshal copied it behind the header.
func TestColumnBytesUnchanged(t *testing.T) {
	want := map[string]string{
		"RLE":             "14501038616c5792abf8961b8230bd86aac4ec9723d53d6ee0a4fb78a01e0cbe",
		"RLE/NULL":        "73311e0347bb39143069f366d3593806220c04ddff3aa8c71077713963d7a0a2",
		"DELTA":           "0c5c591686e35cb5f929997957b4b5b1e6fe6800493e9519c57c00464e3e0f7b",
		"DELTA/NULL":      "d5a653c08768ae8be7e4afb3081de59bd40ec6d6029f952ea412578ec2258568",
		"BITPACK/6":       "91c2b7d18ed748554f9557352c86eaf17fa794a6e60f2de26b9fec2c5b22d2af",
		"BITPACK/6/NULL":  "9408d684f36ac8f744b121ad44bb53cbce8003cf381721674d20265802d27740",
		"BITPACK/0":       "a3b4556e2f4c37805975b3f1fcd833af3ce5f36394d7a3049d25c218e80e4b65",
		"BITPACK/0/NULL":  "692c88c8b8ef4b7f8a8071e4af59eb05978cb9f96730c74378d5a3d3e858b8a6",
		"BITPACK/64":      "8de46606108ae466b9926f904e7467ad3c0b29e74a7e128fb2da7fb6e2b82798",
		"BITPACK/64/NULL": "bbcac92be8bca0881af2b6629273436762364a45dc9c83d089e720d354c9b0dd",
		"DOUBLE":          "4d95986873cc05485d43e1dc0be8f032aee7ba96881d653a935a2e390e838d56",
		"DOUBLE/NULL":     "52ea53875d6dcac1279e62b7487e97adae9899d646143537c4780513abf06db9",
		"DICT":            "7ce9778a712b9d60647bfe5a3b8e6667ad2ceb2021b2709fa81829090c78c622",
		"DICT/NULL":       "919d0e003a6000b2ccb1b5ea6c92322411925e29b8b774e00eace1b9b38b7f60",
		"VARCHAR":         "599b9a155533e3a6c7a8ba7783ca097b13918070a128a42eb4e2b48aba4c89e7",
		"VARCHAR/NULL":    "9d6fafbf0935f9f291a7fbfc8e76bbde5b766f8541502a909f55f3c5412b1268",
		"BOOL":            "532a20e2c8972a2718b7957946b1c6c223b9267bf8fddea81aa0ebd3e92226cd",
		"BOOL/NULL":       "5ec7cf2520bb1db58b1e7c1abd4fbee6fee1a8e014f49a695bd8c8f3b0b7225a",
		"BIGINT/0 rows":   "feda4f414128dd9d2f8fd2bf57615d131a2f038de0ba051960e2ef74d741ded2",
		"DOUBLE/0 rows":   "c18ef22802d667ffc8fdf8d4cd698346a4df870c0c589597d37149a9663737c7",
		"VARCHAR/0 rows":  "b34e6c54cce954036118632aca722b5f3fe101137580156fe81225d937037103",
		"BOOLEAN/0 rows":  "c237b456e5e8c33137b28b45e07022993421961c244d60b40af3f23d6dacbff1",
	}
	for _, p := range pinnedColumns() {
		ec := EncodeColumn(p.v)
		if ec.Encoding != p.enc {
			t.Errorf("%s: written as %v, want %v", p.name, ec.Encoding, p.enc)
		}
		if p.width >= 0 {
			_, a := binary.Uvarint(ec.Data)
			_, b := binary.Uvarint(ec.Data[a:])
			if w := int(ec.Data[a+b]); w != p.width {
				t.Errorf("%s: BITPACK width %d, want %d", p.name, w, p.width)
			}
		}
		sum := sha256.Sum256(ec.Marshal())
		if got := hex.EncodeToString(sum[:]); got != want[p.name] {
			t.Errorf("%s: column SHA-256 %s, want %s", p.name, got, want[p.name])
		}
	}
}
