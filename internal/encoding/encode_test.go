package encoding

import (
	"bytes"
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
